// Package cava_test benchmarks the paper-artifact regenerators (one bench
// per table/figure; see DESIGN.md's experiment index) plus the hot paths of
// the library: per-decision cost of each ABR scheme, full sessions, dataset
// generation and classification.
//
// The experiment benches run at reduced trace counts so `go test -bench=.`
// completes in minutes; use cmd/abreval for paper-scale runs.
package cava_test

import (
	"testing"

	"cava/internal/abr"
	"cava/internal/cliutil"
	"cava/internal/core"
	"cava/internal/experiments"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/trace"
	"cava/internal/video"
)

// benchExperiment runs one experiment per iteration at small scale.
func benchExperiment(b *testing.B, id string, traces int) {
	b.Helper()
	opt := experiments.Options{Traces: traces}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1", 2) }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2", 2) }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3", 2) }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4", 2) }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7", 2) }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b", 2) }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8", 2) }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9", 2) }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10", 2) }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11", 2) }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 1) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", 2) }
func BenchmarkCodec(b *testing.B)  { benchExperiment(b, "codec", 1) }
func BenchmarkCap4x(b *testing.B)  { benchExperiment(b, "cap4x", 2) }
func BenchmarkPredErr(b *testing.B) {
	benchExperiment(b, "prederr", 2)
}

// Ablation and extension benches (DESIGN.md's "alpha", "liveext" and
// "multiclient").

func BenchmarkAblationAlpha(b *testing.B) { benchExperiment(b, "alpha", 2) }
func BenchmarkExtensionLive(b *testing.B) { benchExperiment(b, "liveext", 2) }
func BenchmarkMultiClient(b *testing.B)   { benchExperiment(b, "multiclient", 2) }
func BenchmarkCBRvsVBR(b *testing.B)      { benchExperiment(b, "cbrvbr", 2) }
func BenchmarkStartupSweep(b *testing.B)  { benchExperiment(b, "startup", 2) }
func BenchmarkChunkDuration(b *testing.B) { benchExperiment(b, "chunkdur", 2) }
func BenchmarkAllBaselines(b *testing.B)  { benchExperiment(b, "baselines", 2) }

// BenchmarkLiveTestbed streams 30 chunks over a real shaped HTTP link.
func BenchmarkLiveTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("live", experiments.Options{Traces: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Scheme decision micro-benchmarks: cost of one Select call mid-session.

var (
	// steadyState is mid-session with a comfortable buffer.
	steadyState = abr.State{ChunkIndex: 40, Now: 200, Buffer: 55, Playing: true,
		PrevLevel: 3, Est: 2.4e6, LastThroughputBps: 2.1e6}
	// lowBufferState is the hard case for the look-ahead searches: with 2 s
	// of buffer and a 0.3 Mbps estimate only the lowest track fetches chunk
	// 40 without a stall, and coming off the top track every candidate pays
	// a switch, so their bounds prune less.
	lowBufferState = abr.State{ChunkIndex: 40, Now: 200, Buffer: 2, Playing: true,
		PrevLevel: 5, Est: 0.3e6, LastThroughputBps: 0.3e6}
)

// searchSchemes are the schemes whose Select runs a look-ahead search.
var searchSchemes = []string{"mpc", "robustmpc", "panda-max-sum", "panda-max-min"}

func benchDecision(b *testing.B, algo abr.Algorithm, st abr.State) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Select(st)
	}
}

func benchVideo() *video.Video {
	return video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
}

func BenchmarkDecisionCAVA(b *testing.B) { benchDecision(b, core.New(benchVideo()), steadyState) }

func BenchmarkDecisionMPC(b *testing.B) {
	benchDecision(b, abr.NewMPC(benchVideo(), false), steadyState)
}

func BenchmarkDecisionRobustMPC(b *testing.B) {
	benchDecision(b, abr.NewMPC(benchVideo(), true), steadyState)
}

func BenchmarkDecisionPANDA(b *testing.B) {
	v := benchVideo()
	benchDecision(b, abr.NewPANDACQ(v, quality.NewTable(v, quality.PSNR), abr.MaxMin), steadyState)
}

func BenchmarkDecisionPANDAMaxSum(b *testing.B) {
	v := benchVideo()
	benchDecision(b, abr.NewPANDACQ(v, quality.NewTable(v, quality.PSNR), abr.MaxSum), steadyState)
}

// BenchmarkDecisionLowBuffer times the look-ahead searches in their hard
// case.
func BenchmarkDecisionLowBuffer(b *testing.B) {
	for _, name := range searchSchemes {
		f, err := cliutil.SchemeByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { benchDecision(b, f(benchVideo()), lowBufferState) })
	}
}

// TestDecisionSearchAllocs guards the look-ahead searches' preallocated
// scratch: after the first call, Select allocates nothing in either state.
// Each run makes 100 calls, so an allocation every few calls still counts.
func TestDecisionSearchAllocs(t *testing.T) {
	for _, name := range searchSchemes {
		f, err := cliutil.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algo := f(benchVideo())
		for _, st := range []abr.State{steadyState, lowBufferState} {
			n := testing.AllocsPerRun(10, func() {
				for i := 0; i < 100; i++ {
					algo.Select(st)
				}
			})
			if n != 0 {
				t.Errorf("%s: %v allocations per 100 Select calls at buffer %g s", name, n, st.Buffer)
			}
		}
	}
}

func BenchmarkDecisionBOLAE(b *testing.B) {
	benchDecision(b, abr.NewBOLAE(benchVideo(), abr.BOLASeg, true), steadyState)
}

func BenchmarkDecisionBBA1(b *testing.B) {
	benchDecision(b, abr.NewBBA1(benchVideo(), 0, 0), steadyState)
}

func BenchmarkDecisionRBA(b *testing.B) { benchDecision(b, abr.NewRBA(benchVideo(), 4), steadyState) }

// Full-session benchmarks: one 10-minute session over one LTE trace.

func benchSession(b *testing.B, factory abr.Factory) {
	b.Helper()
	v := benchVideo()
	tr := trace.GenLTE(0)
	cfg := player.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := player.Simulate(v, tr, factory(v), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionCAVA(b *testing.B) { benchSession(b, core.Factory()) }

func BenchmarkSessionRobustMPC(b *testing.B) {
	benchSession(b, func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, true) })
}

// Substrate benchmarks.

func BenchmarkGenerateVideo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	}
}

func BenchmarkGenerateLTETrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.GenLTE(i % 200)
	}
}

func BenchmarkQualityTable(b *testing.B) {
	v := benchVideo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality.NewTable(v, quality.VMAFPhone)
	}
}

func BenchmarkClassify(b *testing.B) {
	v := benchVideo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene.ClassifyDefault(v)
	}
}

// BenchmarkDownloadTime integrates 4 Mb from starts 0..599 s. lte-x10 is
// GenLTE(0)'s samples repeated ten times: integration costs O(windows
// crossed), so it should read within noise of lte.
func BenchmarkDownloadTime(b *testing.B) {
	lte := trace.GenLTE(0)
	x10 := &trace.Trace{ID: lte.ID + "-x10", IntervalSec: lte.IntervalSec}
	for k := 0; k < 10; k++ {
		x10.Samples = append(x10.Samples, lte.Samples...)
	}
	for _, c := range []struct {
		name string
		tr   *trace.Trace
	}{{"lte", lte}, {"fcc", trace.GenFCC(0)}, {"lte-x10", x10}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.tr.DownloadTime(float64(i%600), 4e6)
			}
		})
	}
}

func BenchmarkSummarize(b *testing.B) {
	v := benchVideo()
	tr := trace.GenLTE(0)
	res := mustSimulate(b, v, tr, core.New(v), player.DefaultConfig())
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Summarize(res, qt, cats)
	}
}
