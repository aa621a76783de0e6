// Package report exports sweep results to machine-readable CSV and JSON so
// the paper artifacts can be re-plotted with external tooling.
package report

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"cava/internal/sim"
)

// Row is one session's metric record in flat, export-friendly form.
type Row struct {
	Scheme          string  `json:"scheme"`
	Video           string  `json:"video"`
	Trace           string  `json:"trace"`
	Q4Quality       float64 `json:"q4_quality"`
	Q13Quality      float64 `json:"q13_quality"`
	AvgQuality      float64 `json:"avg_quality"`
	LowQualityPct   float64 `json:"low_quality_pct"`
	RebufferSec     float64 `json:"rebuffer_sec"`
	QualityChange   float64 `json:"quality_change"`
	DataMB          float64 `json:"data_mb"`
	StartupDelaySec float64 `json:"startup_delay_sec"`
	Retries         int     `json:"retries"`
	Truncations     int     `json:"truncations"`
	Abandonments    int     `json:"abandonments"`
	SkippedChunks   int     `json:"skipped_chunks"`
}

// Flatten converts sweep results into rows sorted by (scheme, video, trace).
func Flatten(res *sim.Results) []Row {
	var rows []Row
	for key, summaries := range res.Cells {
		for _, s := range summaries {
			rows = append(rows, Row{
				Scheme:          key.Scheme,
				Video:           key.Video,
				Trace:           s.TraceID,
				Q4Quality:       s.Q4Quality,
				Q13Quality:      s.Q13Quality,
				AvgQuality:      s.AvgQuality,
				LowQualityPct:   s.LowQualityPct,
				RebufferSec:     s.RebufferSec,
				QualityChange:   s.QualityChange,
				DataMB:          s.DataMB,
				StartupDelaySec: s.StartupDelaySec,
				Retries:         s.Retries,
				Truncations:     s.Truncations,
				Abandonments:    s.Abandonments,
				SkippedChunks:   s.SkippedChunks,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Video != b.Video {
			return a.Video < b.Video
		}
		return a.Trace < b.Trace
	})
	return rows
}

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{
	"scheme", "video", "trace", "q4_quality", "q13_quality", "avg_quality",
	"low_quality_pct", "rebuffer_sec", "quality_change", "data_mb", "startup_delay_sec",
	"retries", "truncations", "abandonments", "skipped_chunks",
}

// WriteCSV writes rows with a header line.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	d := strconv.Itoa
	for _, r := range rows {
		rec := []string{
			r.Scheme, r.Video, r.Trace,
			f(r.Q4Quality), f(r.Q13Quality), f(r.AvgQuality),
			f(r.LowQualityPct), f(r.RebufferSec), f(r.QualityChange),
			f(r.DataMB), f(r.StartupDelaySec),
			d(r.Retries), d(r.Truncations), d(r.Abandonments), d(r.SkippedChunks),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes rows as a JSON array.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}
