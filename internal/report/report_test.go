package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func sweep(t *testing.T) *sim.Results {
	t.Helper()
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	res, err := sim.Run(sim.Request{
		Videos: []*video.Video{v},
		Traces: trace.GenLTESet(3),
		Schemes: []abr.Scheme{
			{Name: "CAVA", New: core.Factory()},
			{Name: "RBA", New: func(v *video.Video) abr.Algorithm { return abr.NewRBA(v, 4) }},
		},
		Config: player.DefaultConfig(),
		Metric: quality.VMAFPhone,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFlattenSorted(t *testing.T) {
	rows := Flatten(sweep(t))
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Scheme > b.Scheme || (a.Scheme == b.Scheme && a.Trace > b.Trace) {
			t.Fatal("rows not sorted")
		}
	}
	for _, r := range rows {
		if r.DataMB <= 0 || r.AvgQuality <= 0 {
			t.Fatalf("row has empty metrics: %+v", r)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rows := Flatten(sweep(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows after round trip, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].Scheme != rows[i].Scheme || got[i].Trace != rows[i].Trace {
			t.Fatal("identity columns drifted")
		}
		// 4-decimal CSV rounding.
		if d := got[i].Q4Quality - rows[i].Q4Quality; d > 1e-4 || d < -1e-4 {
			t.Fatal("metric drifted beyond rounding")
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("short header accepted")
	}
	bad := strings.Join(csvHeader, ",") + "\nx,y,z,notanumber,0,0,0,0,0,0,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad float accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rows := Flatten(sweep(t))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var got []Row
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatal("row count changed")
	}
	if got[0] != rows[0] {
		t.Errorf("first row drifted: %+v vs %+v", got[0], rows[0])
	}
}

func TestSummariesReconstruction(t *testing.T) {
	rows := Flatten(sweep(t))
	ss := Summaries(rows)
	if len(ss) != len(rows) {
		t.Fatal("length mismatch")
	}
	if ss[0].Scheme != rows[0].Scheme || ss[0].Q4Quality != rows[0].Q4Quality {
		t.Error("summary fields lost")
	}
}
