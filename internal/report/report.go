// Package report exports sweep results to machine-readable CSV and JSON so
// the paper artifacts can be re-plotted with external tooling, and reads
// them back for offline analysis.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"cava/internal/metrics"
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

// ReadCSV parses rows written by WriteCSV.
func ReadCSV(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("report: empty CSV")
	}
	if len(records[0]) != len(csvHeader) {
		return nil, fmt.Errorf("report: header has %d columns, want %d", len(records[0]), len(csvHeader))
	}
	var rows []Row
	for li, rec := range records[1:] {
		pf := func(col int) (float64, error) { return strconv.ParseFloat(rec[col], 64) }
		var row Row
		row.Scheme, row.Video, row.Trace = rec[0], rec[1], rec[2]
		vals := make([]float64, 8)
		for k := 0; k < 8; k++ {
			v, err := pf(3 + k)
			if err != nil {
				return nil, fmt.Errorf("report: line %d column %d: %v", li+2, 4+k, err)
			}
			vals[k] = v
		}
		ints := make([]int, 4)
		for k := 0; k < 4; k++ {
			v, err := strconv.Atoi(rec[11+k])
			if err != nil {
				return nil, fmt.Errorf("report: line %d column %d: %v", li+2, 12+k, err)
			}
			ints[k] = v
		}
		row.Q4Quality, row.Q13Quality, row.AvgQuality = vals[0], vals[1], vals[2]
		row.LowQualityPct, row.RebufferSec, row.QualityChange = vals[3], vals[4], vals[5]
		row.DataMB, row.StartupDelaySec = vals[6], vals[7]
		row.Retries, row.Truncations, row.Abandonments, row.SkippedChunks = ints[0], ints[1], ints[2], ints[3]
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteJSON writes rows as a JSON array.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}

// Summaries reconstructs metric summaries from rows (for downstream code
// that speaks the metrics types).
func Summaries(rows []Row) []metrics.Summary {
	out := make([]metrics.Summary, len(rows))
	for i, r := range rows {
		out[i] = metrics.Summary{
			Scheme:          r.Scheme,
			VideoID:         r.Video,
			TraceID:         r.Trace,
			Q4Quality:       r.Q4Quality,
			Q13Quality:      r.Q13Quality,
			AvgQuality:      r.AvgQuality,
			LowQualityPct:   r.LowQualityPct,
			RebufferSec:     r.RebufferSec,
			QualityChange:   r.QualityChange,
			DataMB:          r.DataMB,
			StartupDelaySec: r.StartupDelaySec,
			Retries:         r.Retries,
			Truncations:     r.Truncations,
			Abandonments:    r.Abandonments,
			SkippedChunks:   r.SkippedChunks,
		}
	}
	return out
}
