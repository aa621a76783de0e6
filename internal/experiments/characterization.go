package experiments

import (
	"fmt"
	"strings"

	"cava/internal/metrics"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/video"
)

func init() {
	register("fig1", "Fig. 1: per-chunk bitrates of a VBR video (ED, YouTube encoded, H.264)", runFig1)
	register("fig2", "Fig. 2: chunk SI/TI by size quartile (ED, track 3, H.264 & H.265)", runFig2)
	register("fig3", "Fig. 3: quality CDFs by size quartile (ED, YouTube encoded, 480p)", runFig3)
}

// runFig1 regenerates the bitrate series of Fig. 1: every track's chunk
// bitrates plus the per-track averages (the figure's dashed lines) and the
// §2 variability statistics.
func runFig1(Options) (*Result, error) {
	v := edYouTube()
	var sb strings.Builder

	header := []string{"track", "avg(Mbps)", "peak(Mbps)", "peak/avg", "CoV"}
	var rows [][]string
	for _, t := range v.Tracks {
		rows = append(rows, []string{
			t.Res.Name,
			f2(t.AvgBitrateBps / 1e6),
			f2(t.PeakBitrateBps / 1e6),
			f2(t.PeakToAvg()),
			f2(t.CoV()),
		})
	}
	sb.WriteString(table(header, rows))
	sb.WriteString("\nchunk bitrate series (Mbps), first 100 chunks:\n")
	for _, t := range v.Tracks {
		parts := make([]string, 0, 100)
		for i := 0; i < 100 && i < v.NumChunks(); i++ {
			parts = append(parts, f2(t.ChunkBitrate(i, v.ChunkDurSec)/1e6))
		}
		fmt.Fprintf(&sb, "%-6s %s\n", t.Res.Name, strings.Join(parts, " "))
	}
	return &Result{Text: sb.String()}, nil
}

// runFig2 regenerates the SI/TI quartile separation of Fig. 2 for both
// codecs: the fraction of each quartile's chunks above the SI>25, TI>7
// region, plus mean SI/TI per quartile.
func runFig2(opt Options) (*Result, error) {
	var sb strings.Builder
	for _, codec := range []video.Codec{video.H264, video.H265} {
		v := opt.cache().Generate(video.FFmpegConfig(video.Title{Name: "ED", Genre: video.SciFi}, codec))
		cats := scene.Classify(v, 3, 4)
		siti := scene.ComputeSITI(v)
		fr := scene.FractionAbove(cats, siti, 25, 7, 4)

		meanSI := map[scene.Category]float64{}
		meanTI := map[scene.Category]float64{}
		count := map[scene.Category]int{}
		for i, c := range cats {
			meanSI[c] += siti[i].SI
			meanTI[c] += siti[i].TI
			count[c]++
		}
		fmt.Fprintf(&sb, "%s (track 3 reference):\n", v.ID())
		header := []string{"quartile", "chunks", "mean SI", "mean TI", "frac(SI>25 & TI>7)"}
		var rows [][]string
		for c := scene.Q1; c <= scene.Q4; c++ {
			n := float64(count[c])
			rows = append(rows, []string{
				fmt.Sprintf("Q%d", c), fmt.Sprint(count[c]),
				f1(meanSI[c] / n), f1(meanTI[c] / n), f2(fr[c]),
			})
		}
		sb.WriteString(table(header, rows))

		// Cross-track category consistency (§3.1.1 Property 2).
		var corrs []string
		for l := 0; l < v.NumTracks(); l++ {
			corrs = append(corrs, f2(scene.CategoryCorrelation(v, 3, l, 4)))
		}
		fmt.Fprintf(&sb, "cross-track category correlation vs track 3: %s\n\n", strings.Join(corrs, " "))
	}
	return &Result{Text: sb.String()}, nil
}

// runFig3 regenerates the per-quartile quality CDFs of Fig. 3 on the middle
// (480p) track for PSNR, SSIM, VMAF-TV and VMAF-phone.
func runFig3(opt Options) (*Result, error) {
	v := edYouTube()
	cats := opt.cache().Categories(v)
	mid := v.NumTracks() / 2
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s, track %d (%s):\n\n", v.ID(), mid, v.Tracks[mid].Res.Name)
	for _, m := range []quality.Metric{quality.PSNR, quality.SSIM, quality.VMAFTV, quality.VMAFPhone} {
		qt := opt.cache().QualityTable(v, m)
		byCat := map[scene.Category][]float64{}
		for i := 0; i < v.NumChunks(); i++ {
			byCat[cats[i]] = append(byCat[cats[i]], qt.At(mid, i))
		}
		fmt.Fprintf(&sb, "%s:\n", m)
		header := []string{"quartile", "median", "CDF deciles"}
		var rows [][]string
		for c := scene.Q1; c <= scene.Q4; c++ {
			med := metrics.Median(byCat[c])
			medStr := f1(med)
			if m == quality.SSIM {
				medStr = fmt.Sprintf("%.3f", med)
			}
			rows = append(rows, []string{fmt.Sprintf("Q%d", c), medStr, cdfDeciles(byCat[c])})
		}
		sb.WriteString(table(header, rows))
		sb.WriteString("\n")
	}
	return &Result{Text: sb.String()}, nil
}
