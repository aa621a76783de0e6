package cliutil

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/trace"
	"cava/internal/video"
)

func TestParseTraceFamilies(t *testing.T) {
	lte, err := ParseTrace("lte:3")
	if err != nil || lte.ID != "lte-003" {
		t.Fatalf("lte spec: %v, %v", lte, err)
	}
	fcc, err := ParseTrace("fcc:0")
	if err != nil || fcc.IntervalSec != trace.FCCIntervalSec {
		t.Fatalf("fcc spec: %v, %v", fcc, err)
	}
	c, err := ParseTrace("const:2.5")
	if err != nil || c.Mean() != 2.5e6 {
		t.Fatalf("const spec: %v, %v", c, err)
	}
}

func TestParseTraceMahimahi(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteMahimahi(&buf, trace.Constant("x", 3e6, 5, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mm.log")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTrace("mahimahi:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() < 4 {
		t.Errorf("mahimahi trace too short: %v", tr.Duration())
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, bad := range []string{
		"", "lte", "lte:x", "fcc:y", "lte:-1", "fcc:-4", "const:z", "const:-1",
		"const:0", "const:NaN", "const:Inf", "const:-Inf",
		"mars:1", "mahimahi:/does/not/exist",
	} {
		if _, err := ParseTrace(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseCorpus(t *testing.T) {
	trs, err := ParseCorpus("lte:3,fcc:2,const:2.5")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(trs))
	for i, tr := range trs {
		ids[i] = tr.ID
	}
	want := []string{"lte-000", "lte-001", "lte-002", "fcc-000", "fcc-001", "const:2.5"}
	if len(ids) != len(want) {
		t.Fatalf("corpus = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("corpus[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestParseCorpusErrors(t *testing.T) {
	for _, bad := range []string{
		"", "lte", "lte:0", "lte:-2", "fcc:x", "mars:1", "lte:3,,fcc:1",
		"lte:2,const:NaN", "const:+Inf,fcc:1",
	} {
		if _, err := ParseCorpus(bad); err == nil {
			t.Errorf("corpus spec %q accepted", bad)
		}
	}
}

func TestNonNegative(t *testing.T) {
	for _, ok := range []float64{0, 1e-300, 2.5, math.MaxFloat64} {
		if err := NonNegative("-x", ok); err != nil {
			t.Errorf("NonNegative(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{-1e-300, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := NonNegative("-x", bad)
		if err == nil || !strings.HasPrefix(err.Error(), "-x ") {
			t.Errorf("NonNegative(%v) = %v, want an error naming -x", bad, err)
		}
	}
}

func TestSchemeRegistryComplete(t *testing.T) {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	for _, name := range SchemeNames() {
		f, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		algo := f(v)
		if algo.Name() == "" {
			t.Errorf("%s: empty algorithm name", name)
		}
		if l := algo.Select(abr.State{ChunkIndex: 0, Buffer: 20, Est: 2e6}); l < 0 || l >= v.NumTracks() {
			t.Errorf("%s: first decision %d out of range", name, l)
		}
	}
}

func TestSchemeByNameUnknown(t *testing.T) {
	if _, err := SchemeByName("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Scheme("cava-p123"); err == nil {
		t.Error("non-roster alias cava-p123 accepted")
	}
}

func TestWriteOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "data\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "data\n" {
		t.Fatalf("file = %q, %v", got, err)
	}
	boom := errors.New("boom")
	if err := WriteOutput(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("write error = %v, want %v", err, boom)
	}
	if err := WriteOutput(filepath.Join(path, "sub"), func(io.Writer) error { return nil }); err == nil {
		t.Error("creating a file under a regular file succeeded")
	}
}
