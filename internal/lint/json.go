package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON exposition for editor and CI tooling: one Finding object per line
// (JSON Lines), so consumers stream-parse without buffering the whole
// report. Suppressed findings are included and marked — the exit status
// ignores them, but an auditor can see every active waiver.

// jsonFinding is the wire form of one Finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// WriteJSON renders findings as JSON Lines. Filenames are written as
// given; callers relativize Pos.Filename first when they want
// module-relative paths.
func WriteJSON(w io.Writer, findings []Finding) error {
	enc := json.NewEncoder(w)
	for _, f := range findings {
		jf := jsonFinding{
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		}
		if err := enc.Encode(jf); err != nil {
			return fmt.Errorf("lint: encode finding: %w", err)
		}
	}
	return nil
}
