package experiments

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"cava/internal/abr"
	"cava/internal/dash"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

func init() {
	register("fig11", "Fig. 11: CAVA vs BOLA-E (peak/avg/seg) — dash testbed model (BBB, LTE)", runFig11)
	register("table2", "Table 2: CAVA vs BOLA-E (seg) across YouTube videos (LTE)", runTable2)
	register("live", "§6.8: live HTTP streaming over a trace-shaped link (validation run)", runLive)
	register("robustness", "§6.8 under faults: resilient client vs fault profiles (seeded injection)", runRobustness)
}

// runFig11 compares CAVA with the three BOLA-E declared-bitrate variants.
// The algorithms are byte-identical to the ones the live HTTP testbed runs
// (see the "live" experiment); the trace-replay path makes the 200-trace
// sweep tractable, exactly as the paper pairs simulation with its dash.js
// testbed.
func runFig11(opt Options) (*Result, error) {
	v := opt.cache().Generate(video.YouTubeConfig(video.Title{Name: "BBB", Genre: video.Animation}))
	res, err := sim.Run(sim.Request{
		Videos:  []*video.Video{v},
		Traces:  trace.GenLTESet(opt.traces()),
		Schemes: []abr.Scheme{sim.CAVA, sim.BOLAEPeak, sim.BOLAEAvg, sim.BOLAESeg},
		Config:  defaultConfig(),
		Metric:  quality.VMAFPhone,
		Workers: opt.Workers,
		Cache:   opt.cache(),
	})
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "video %s, %d LTE traces\n\n", v.ID(), opt.traces())
	schemes := []string{"CAVA", "BOLA-E (peak)", "BOLA-E (avg)", "BOLA-E (seg)"}
	fields := []struct {
		name string
		f    metrics.Field
	}{
		{"quality of Q4 chunks", metrics.FieldQ4Quality},
		{"% low-quality chunks", metrics.FieldLowQualityPct},
		{"total rebuffering (s)", metrics.FieldRebuffer},
		{"avg quality change /chunk", metrics.FieldQualityChange},
		{"data usage (MB)", metrics.FieldDataMB},
	}
	for _, fd := range fields {
		fmt.Fprintf(&sb, "%s:\n", fd.name)
		var rows [][]string
		for _, s := range schemes {
			xs := metrics.Collect(res.Summaries(s, v.ID()), fd.f)
			rows = append(rows, []string{s, f1(metrics.Mean(xs)), cdfDeciles(xs)})
		}
		sb.WriteString(table([]string{"scheme", "mean", "deciles"}, rows))
		sb.WriteString("\n")
	}
	return &Result{ID: "fig11", Title: Title("fig11"), Text: sb.String()}, nil
}

// runTable2 regenerates Table 2: CAVA's change relative to BOLA-E (seg)
// for four YouTube videos under LTE traces.
func runTable2(opt Options) (*Result, error) {
	titles := []video.Title{
		{Name: "BBB", Genre: video.Animation},
		{Name: "ED", Genre: video.SciFi},
		{Name: "Sports", Genre: video.Sports},
		{Name: "ToS", Genre: video.SciFi},
	}
	var videos []*video.Video
	for _, t := range titles {
		videos = append(videos, opt.cache().Generate(video.YouTubeConfig(t)))
	}
	res, err := sim.Run(sim.Request{
		Videos:  videos,
		Traces:  trace.GenLTESet(opt.traces()),
		Schemes: []abr.Scheme{sim.CAVA, sim.BOLAESeg},
		Config:  defaultConfig(),
		Metric:  quality.VMAFPhone,
		Workers: opt.Workers,
		Cache:   opt.cache(),
	})
	if err != nil {
		return nil, err
	}
	header := []string{"video", "Q4 qual", "low-qual %", "stall %", "qual chg %", "data %"}
	var rows [][]string
	for _, v := range videos {
		cava := meansOf(res.Summaries("CAVA", v.ID()))
		bola := meansOf(res.Summaries("BOLA-E (seg)", v.ID()))
		rows = append(rows, append([]string{v.Name}, deltaRow(cava, bola)...))
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	sb.WriteString("\n(change by CAVA relative to BOLA-E (seg); Q4 in VMAF points, others in %)\n")
	return &Result{ID: "table2", Title: Title("table2"), Text: sb.String()}, nil
}

// runLive streams a video over a real HTTP server through a trace-shaped
// TCP link — the §6.8 testbed — for CAVA and BOLA-E (seg), and reports the
// session metrics. Scale and session length are chosen so the run takes a
// few wall seconds; Options.Traces bounds the number of traces replayed
// (default 2 at paper scale to keep the runtime sane).
func runLive(opt Options) (*Result, error) {
	nTraces := 2
	if opt.Traces > 0 && opt.Traces < nTraces {
		nTraces = opt.Traces
	}
	const scale = 120
	const maxChunks = 60

	v := opt.cache().Generate(video.YouTubeConfig(video.Title{Name: "BBB", Genre: video.Animation}))
	qt := opt.cache().QualityTable(v, quality.VMAFPhone)
	cats := opt.cache().Categories(v)

	factories := []abr.Scheme{sim.CAVA, sim.BOLAESeg}
	header := []string{"trace", "scheme", "Q4 qual", "low-qual %", "rebuf (s)", "qual chg", "data MB", "wall (s)"}
	var rows [][]string
	for ti := 0; ti < nTraces; ti++ {
		tr := trace.GenLTE(ti)
		for _, sc := range factories {
			row, err := liveSession(v, qt, cats, tr, sc, scale, maxChunks)
			if err != nil {
				return nil, err
			}
			rows = append(rows, append([]string{tr.ID}, row...))
		}
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(real HTTP over a shaped loopback link; time scale %dx, first %d chunks)\n", scale, maxChunks)
	return &Result{ID: "live", Title: Title("live"), Text: sb.String()}, nil
}

// liveSession runs one real HTTP streaming session and returns the
// formatted metric cells.
func liveSession(v *video.Video, qt *quality.Table, cats []scene.Category,
	tr *trace.Trace, sc abr.Scheme, scale float64, maxChunks int) ([]string, error) {
	res, _, err := testbedSession(v, tr, sc, scale, maxChunks, "none", 0, false)
	if err != nil {
		return nil, err
	}
	s := metrics.Summarize(res, qt, cats)
	return []string{
		res.Scheme, f1(s.Q4Quality), f1(s.LowQualityPct), f1(s.RebufferSec),
		f2(s.QualityChange), f1(s.DataMB), f1(res.SessionSec / scale),
	}, nil
}

// testbedSession runs one real HTTP streaming session over a shaped
// loopback link, behind the named fault profile and optionally with a
// resilient client, and returns the session result plus the injector's
// stats.
func testbedSession(v *video.Video, tr *trace.Trace, sc abr.Scheme,
	scale float64, maxChunks int, faults string, faultSeed int64,
	resilient bool) (*player.Result, dash.FaultStats, error) {
	inj, err := dash.NewFaultInjector(faults, faultSeed, scale, dash.NewServer(v).Handler())
	if err != nil {
		return nil, dash.FaultStats{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, dash.FaultStats{}, err
	}
	shaped := dash.NewShapedListener(ln, dash.NewShaper(tr, scale))
	srv := dash.NewHTTPServer(inj)
	go srv.Serve(shaped)
	defer srv.Close()

	client, err := dash.NewClient(dash.ClientConfig{
		BaseURL:      "http://" + ln.Addr().String(),
		NewAlgorithm: sc.New,
		TimeScale:    scale,
		MaxChunks:    maxChunks,
		Resilient:    resilient,
	})
	if err != nil {
		return nil, dash.FaultStats{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := client.Run(ctx)
	if err != nil {
		return nil, inj.Stats(), err
	}
	return res, inj.Stats(), nil
}

// runRobustness streams the testbed under seeded fault injection: every
// scheme crosses every fault profile on one LTE trace with the resilient
// client, demonstrating that sessions complete (with retries, downshifts
// and skip-stalls accounted) where the fail-fast client would abort.
func runRobustness(opt Options) (*Result, error) {
	const scale = 120
	const maxChunks = 40
	const seed = 1

	v := opt.cache().Generate(video.YouTubeConfig(video.Title{Name: "BBB", Genre: video.Animation}))
	qt := opt.cache().QualityTable(v, quality.VMAFPhone)
	cats := opt.cache().Categories(v)
	tr := trace.GenLTE(0)

	schemes := []abr.Scheme{sim.CAVA, sim.BOLAESeg}
	header := []string{"profile", "scheme", "retries", "trunc", "abandon", "skip",
		"rebuf (s)", "Q4 qual", "data MB", "injected"}
	var rows [][]string
	for _, profile := range dash.FaultProfileNames() {
		for _, sc := range schemes {
			res, stats, err := testbedSession(v, tr, sc, scale, maxChunks, profile, seed, true)
			if err != nil {
				return nil, fmt.Errorf("robustness %s/%s: %w", profile, sc.Name, err)
			}
			s := metrics.Summarize(res, qt, cats)
			injected := stats.Errors + stats.Resets + stats.Truncations + stats.OutageRejections
			rows = append(rows, []string{
				profile, res.Scheme,
				fmt.Sprint(s.Retries), fmt.Sprint(s.Truncations),
				fmt.Sprint(s.Abandonments), fmt.Sprint(s.SkippedChunks),
				f1(s.RebufferSec), f1(s.Q4Quality), f1(s.DataMB),
				fmt.Sprint(injected),
			})
		}
	}
	var sb strings.Builder
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n(LTE trace %s, %d chunks, time scale %dx, fault seed %d; "+
		"every session completes under the resilient fetch pipeline)\n",
		tr.ID, maxChunks, scale, seed)
	return &Result{ID: "robustness", Title: Title("robustness"), Text: sb.String()}, nil
}
