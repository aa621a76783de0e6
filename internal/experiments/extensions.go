package experiments

import (
	"fmt"
	"strings"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("alpha", "ablation: differential-treatment strength (α sweep, §5.3's explored ranges)", runAlpha)
	register("liveext", "extension (§8): CAVA under live-streaming lookahead limits", runLiveExt)
}

// runAlpha sweeps the (αComplex, αSimple) pairs across the ranges the paper
// explored, exposing the tradeoff §5.3 describes: stronger inflation lifts
// Q4 quality at the cost of stalls; stronger deflation saves data but can
// degrade simple scenes.
func runAlpha(opt Options) (*Result, error) {
	v := edFFmpeg()
	traces := trace.GenLTESet(opt.traces())
	pairs := []struct{ complex, simple float64 }{
		{1.0, 1.0}, // differential treatment off (α-wise)
		{1.1, 0.9},
		{1.1, 0.8}, // the paper's chosen point
		{1.3, 0.7},
		{1.5, 0.7}, // this repo's default
		{1.5, 0.6}, // the strongest explored corner
	}
	header := []string{"αQ4/αQ1-3", "Q4 qual", "Q1-3 qual", "low-qual %", "rebuf (s)", "data MB"}
	var rows [][]string
	for _, pr := range pairs {
		p := core.DefaultParams()
		p.AlphaComplex, p.AlphaSimple = pr.complex, pr.simple
		name := fmt.Sprintf("CAVA α=%.1f/%.1f", pr.complex, pr.simple)
		res, err := sim.Run(sim.Request{
			Videos:  []*video.Video{v},
			Traces:  traces,
			Schemes: []abr.Scheme{{Name: name, New: core.FactoryWith(p, core.AllPrinciples, name)}},
			Config:  defaultConfig(),
			Metric:  quality.VMAFPhone,
			Cache:   opt.cache(),
		})
		if err != nil {
			return nil, err
		}
		ss := res.Summaries(name, v.ID())
		var q13 []float64
		for _, s := range ss {
			q13 = append(q13, s.Q13Quality)
		}
		m := meansOf(ss)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f/%.1f", pr.complex, pr.simple),
			f1(m.q4), f1(metrics.Mean(q13)), f1(m.low), f1(m.reb), f1(m.mb),
		})
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	sb.WriteString("\n(ED, FFmpeg H.264, LTE; stronger differential treatment lifts Q4 while deflation caps data)\n")
	return &Result{Text: sb.String()}, nil
}

// runLiveExt evaluates the §8 future-work direction: true live VBR
// streaming. The encoder produces chunks in real time, the client can never
// buffer past the live edge, stalls permanently raise latency, and the
// scheme only knows the sizes of already-encoded chunks (core.Live's
// lookahead bound). The table also includes a VoD column as the reference
// upper bound, plus RobustMPC under the same live constraints.
func runLiveExt(opt Options) (*Result, error) {
	v := edFFmpeg()
	nTraces := opt.traces()
	cfg := defaultConfig()
	// Live sessions cannot pre-buffer a minute of content: use a 10s
	// startup against a live edge with a default one-chunk encoder delay.
	lcfg := player.LiveConfig{EncoderDelaySec: -1}
	qt := opt.cache().QualityTable(v, quality.VMAFPhone)
	cats := opt.cache().Categories(v)

	type liveScheme struct {
		name string
		make func() abr.Algorithm
		vod  bool
	}
	mk := func(la int, name string) liveScheme {
		p := core.DefaultParams()
		p.Lookahead = la
		// The live buffer is bounded by the edge; target what is
		// reachable under the startup latency.
		p.BaseTargetBuffer = cfg.StartupSec
		p.TargetMax = cfg.StartupSec + 2*v.ChunkDurSec
		f := core.FactoryWith(p, core.AllPrinciples, name)
		return liveScheme{name: name, make: func() abr.Algorithm { return f(v) }}
	}
	schemes := []liveScheme{
		mk(2, "CAVA-live2"),
		mk(5, "CAVA-live5"),
		mk(20, "CAVA-live20"),
		{name: "RobustMPC-live", make: func() abr.Algorithm { return sim.RobustMPC.New(v) }},
		{name: "CAVA (VoD ref)", make: func() abr.Algorithm { return sim.CAVA.New(v) }, vod: true},
	}

	header := []string{"scheme", "Q4 qual", "low-qual %", "rebuf (s)", "avg latency (s)", "max latency (s)", "data MB"}
	var rows [][]string
	for _, sc := range schemes {
		var q4s, lows, rebs, lats, latMaxs, mbs []float64
		for ti := 0; ti < nTraces; ti++ {
			tr := trace.GenLTE(ti)
			if sc.vod {
				res, err := player.Simulate(v, tr, sc.make(), cfg)
				if err != nil {
					return nil, err
				}
				s := metrics.Summarize(res, qt, cats)
				q4s = append(q4s, s.Q4Quality)
				lows = append(lows, s.LowQualityPct)
				rebs = append(rebs, s.RebufferSec)
				mbs = append(mbs, s.DataMB)
				continue
			}
			res, err := player.SimulateLive(v, tr, sc.make(), cfg, lcfg)
			if err != nil {
				return nil, err
			}
			s := metrics.Summarize(&res.Result, qt, cats)
			q4s = append(q4s, s.Q4Quality)
			lows = append(lows, s.LowQualityPct)
			rebs = append(rebs, s.RebufferSec)
			lats = append(lats, res.AvgLatencySec)
			latMaxs = append(latMaxs, res.MaxLatencySec)
			mbs = append(mbs, s.DataMB)
		}
		lat, latMax := "-", "-"
		if len(lats) > 0 {
			lat, latMax = f1(metrics.Mean(lats)), f1(metrics.Mean(latMaxs))
		}
		rows = append(rows, []string{sc.name,
			f1(metrics.Mean(q4s)), f1(metrics.Mean(lows)), f1(metrics.Mean(rebs)),
			lat, latMax, f1(metrics.Mean(mbs))})
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	sb.WriteString("\n(encoder-paced sessions; the scheme sees only already-encoded chunk sizes,\n")
	sb.WriteString(" the buffer is bounded by the live edge, and stalls permanently raise latency)\n")
	return &Result{Text: sb.String()}, nil
}
