package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
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

// TestCSVRoundTrip parses WriteCSV's output with encoding/csv: the header,
// the identity columns and a 4-decimal metric column come back intact.
func TestCSVRoundTrip(t *testing.T) {
	rows := Flatten(sweep(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(rows)+1 || strings.Join(records[0], ",") != strings.Join(csvHeader, ",") {
		t.Fatalf("%d records, header %v; want %d rows under %v", len(records), records[0], len(rows), csvHeader)
	}
	for i, r := range rows {
		rec := records[i+1]
		if rec[0] != r.Scheme || rec[1] != r.Video || rec[2] != r.Trace {
			t.Fatalf("row %d identity columns %v, want %s/%s/%s", i, rec[:3], r.Scheme, r.Video, r.Trace)
		}
		q4, err := strconv.ParseFloat(rec[3], 64)
		if err != nil || math.Abs(q4-r.Q4Quality) > 1e-4 {
			t.Fatalf("row %d q4_quality %q, want %.4f", i, rec[3], r.Q4Quality)
		}
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
