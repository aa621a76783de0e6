package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteCSV exports the trace in the simple two-column format
// "time_s,bandwidth_bps" with one row per sample, preceded by a header row.
// It is export-only: traces enter the tools through cliutil.ParseTrace's
// generated and Mahimahi specs, never through CSV.
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s interval %g\n", t.ID, t.IntervalSec); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "time_s,bandwidth_bps"); err != nil {
		return err
	}
	for i, s := range t.Samples {
		if _, err := fmt.Fprintf(bw, "%.3f,%.0f\n", float64(i)*t.IntervalSec, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
