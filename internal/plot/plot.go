// Package plot renders small terminal charts — sparklines, CDF step plots
// and quality strip charts — so cmd/abreval can show the paper's figures
// directly in the terminal without any plotting dependency.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sparkRunes are the eighth-block ramp used by Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a one-line miniature of a series, scaling into the
// eighth-block ramp. Empty input yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// Series is one named sample for CDF for comparison plots.
type Series struct {
	Name   string
	Values []float64
}

// seriesMarkers distinguish lines in shared plots.
var seriesMarkers = []rune("*o+x#@%&")

// CDF renders the empirical CDFs of several series on one character grid.
// The x axis spans the pooled sample range; the y axis is probability 0–1.
func CDF(series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 5 {
		height = 5
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	valid := false
	for _, s := range series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			valid = true
		}
	}
	if !valid {
		return "(no data)\n"
	}
	//lint:allow floateq degenerate-range guard wants exact equality
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		if len(s.Values) == 0 {
			continue
		}
		marker := seriesMarkers[si%len(seriesMarkers)]
		sorted := append([]float64(nil), s.Values...)
		sort.Float64s(sorted)
		for col := 0; col < width; col++ {
			x := lo + (hi-lo)*float64(col)/float64(width-1)
			// P(X <= x) by binary search.
			idx := sort.SearchFloat64s(sorted, x)
			for idx < len(sorted) && sorted[idx] <= x {
				idx++
			}
			p := float64(idx) / float64(len(sorted))
			row := height - 1 - int(p*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			if grid[row][col] == ' ' {
				grid[row][col] = marker
			} else if grid[row][col] != marker {
				grid[row][col] = '·' // overlap
			}
		}
	}

	var sb strings.Builder
	for r, row := range grid {
		p := 1 - float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%4.2f |%s|\n", p, string(row))
	}
	fmt.Fprintf(&sb, "      %-*s\n", width, axisLabels(lo, hi, width))
	for si, s := range series {
		fmt.Fprintf(&sb, "      %c %s\n", seriesMarkers[si%len(seriesMarkers)], s.Name)
	}
	return sb.String()
}

// axisLabels renders min/mid/max markers under the x axis.
func axisLabels(lo, hi float64, width int) string {
	left := fmt.Sprintf("%.4g", lo)
	mid := fmt.Sprintf("%.4g", (lo+hi)/2)
	right := fmt.Sprintf("%.4g", hi)
	pad := width - len(left) - len(mid) - len(right)
	if pad < 2 {
		return left + " … " + right
	}
	return left + strings.Repeat(" ", pad/2) + mid + strings.Repeat(" ", pad-pad/2) + right
}

// Timeline renders a quality/level series as rows of a compact strip chart,
// marking highlighted positions (e.g. Q4 chunks) on a separate rail.
func Timeline(values []float64, highlight []bool, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width <= 0 || width > len(values) {
		width = len(values)
	}
	// Downsample by averaging buckets.
	bucket := float64(len(values)) / float64(width)
	ds := make([]float64, width)
	hl := make([]bool, width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * bucket)
		hi := int(float64(i+1) * bucket)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(values) {
			hi = len(values)
		}
		sum := 0.0
		for k := lo; k < hi; k++ {
			sum += values[k]
			if highlight != nil && k < len(highlight) && highlight[k] {
				hl[i] = true
			}
		}
		ds[i] = sum / float64(hi-lo)
	}
	var sb strings.Builder
	sb.WriteString(Sparkline(ds))
	sb.WriteString("\n")
	for _, h := range hl {
		if h {
			sb.WriteString("▔")
		} else {
			sb.WriteString(" ")
		}
	}
	sb.WriteString("  (▔ marks complex Q4 scenes)\n")
	return sb.String()
}
