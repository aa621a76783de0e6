package plot

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline rune count %d, want 8", utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline extremes wrong: %s", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline not empty")
	}
	// Constant series must not panic or divide by zero.
	c := Sparkline([]float64{5, 5, 5})
	if utf8.RuneCountInString(c) != 3 {
		t.Errorf("constant sparkline = %q", c)
	}
}

func TestSparklineMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		s := []rune(Sparkline(vals))
		if len(s) != len(vals) {
			return false
		}
		// Higher value never renders as a lower block.
		for i := range vals {
			for j := range vals {
				if vals[i] > vals[j] && blockIndex(s[i]) < blockIndex(s[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func blockIndex(r rune) int {
	for i, b := range sparkRunes {
		if b == r {
			return i
		}
	}
	return -1
}

func TestCDFPlot(t *testing.T) {
	out := CDF([]Series{
		{Name: "a", Values: []float64{1, 2, 3, 4, 5}},
		{Name: "b", Values: []float64{3, 4, 5, 6, 7}},
	}, 40, 8)
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "0.00") {
		t.Error("y-axis labels missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
	// Series a (smaller values) must appear left of series b in the top row
	// region; check markers exist at all.
	if !strings.ContainsRune(out, '*') || !strings.ContainsRune(out, 'o') {
		t.Error("series markers missing")
	}
}

func TestCDFPlotDegenerate(t *testing.T) {
	if out := CDF(nil, 40, 8); !strings.Contains(out, "no data") {
		t.Errorf("empty plot = %q", out)
	}
	// Constant values must render without panic.
	out := CDF([]Series{{Name: "c", Values: []float64{2, 2, 2}}}, 20, 6)
	if out == "" {
		t.Error("constant-series plot empty")
	}
	// Tiny dimensions are coerced.
	out = CDF([]Series{{Name: "c", Values: []float64{1, 2}}}, 1, 1)
	if out == "" {
		t.Error("tiny plot empty")
	}
}

func TestTimeline(t *testing.T) {
	vals := make([]float64, 100)
	hl := make([]bool, 100)
	for i := range vals {
		vals[i] = float64(i % 10)
		hl[i] = i >= 50 && i < 60
	}
	out := Timeline(vals, hl, 50)
	lines := strings.Split(out, "\n")
	if len(lines) < 2 {
		t.Fatal("timeline too short")
	}
	if utf8.RuneCountInString(lines[0]) != 50 {
		t.Errorf("timeline width %d, want 50", utf8.RuneCountInString(lines[0]))
	}
	if !strings.Contains(lines[1], "▔") {
		t.Error("highlight rail missing")
	}
	if Timeline(nil, nil, 10) != "" {
		t.Error("empty timeline not empty")
	}
}
