package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` headers once per metric family,
// samples sorted by name then label set, histograms expanded into
// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range r.snapshot() {
		if e.name != lastFamily {
			lastFamily = e.name
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", e.name, escapeHelp(e.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", e.name, e.labels, e.counter())
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %s\n", e.name, e.labels, formatFloat(e.gauge()))
		case kindHistogram:
			writeHistogram(bw, e)
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative bucket series for one histogram.
func writeHistogram(w *bufio.Writer, e *entry) {
	h := e.h
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, mergeLabels(e.labels, "le", formatFloat(ub)), cum)
	}
	// The +Inf bucket equals the total count by construction; read the
	// bucket itself so a torn read against count stays internally cumulative.
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, mergeLabels(e.labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", e.name, e.labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", e.name, e.labels, h.Count())
}

// mergeLabels inserts an extra pair into a pre-rendered label suffix.
func mergeLabels(rendered, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(rendered, "}") + "," + extra + "}"
}

// escapeHelp applies the help-text escaping rules.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry at any path, for
// mounting at /metrics. A nil registry serves an empty (valid) exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WriteText(w)
	})
}
