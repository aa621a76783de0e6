package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTrip parses WriteCSV's output with encoding/csv: the header
// comment names the trace and its interval, and each row carries its
// sample's time and bandwidth, rounded to whole bits/sec.
func TestCSVRoundTrip(t *testing.T) {
	orig := GenLTE(5)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	header, body, _ := strings.Cut(buf.String(), "\n")
	if want := fmt.Sprintf("# trace %s interval %g", orig.ID, orig.IntervalSec); header != want {
		t.Errorf("header %q, want %q", header, want)
	}
	records, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(orig.Samples)+1 || strings.Join(records[0], ",") != "time_s,bandwidth_bps" {
		t.Fatalf("%d records under %v; want %d samples under time_s,bandwidth_bps",
			len(records), records[0], len(orig.Samples))
	}
	for i, s := range orig.Samples {
		rec := records[i+1]
		tm, terr := strconv.ParseFloat(rec[0], 64)
		bw, berr := strconv.ParseFloat(rec[1], 64)
		if terr != nil || berr != nil || math.Abs(tm-float64(i)*orig.IntervalSec) > 5e-4 || math.Abs(bw-s) > 0.5 {
			t.Fatalf("row %d = %v, want %.3f,%.0f", i, rec, float64(i)*orig.IntervalSec, s)
		}
	}
}
