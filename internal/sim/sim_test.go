package sim

import (
	"strconv"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/core"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

func smallRequest(workers int) Request {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	return Request{
		Videos: []*video.Video{v},
		Traces: trace.GenLTESet(4),
		Schemes: []abr.Scheme{
			{Name: "CAVA", New: core.Factory()},
			{Name: "RBA", New: func(v *video.Video) abr.Algorithm { return abr.NewRBA(v, 4) }},
		},
		Config:  player.DefaultConfig(),
		Metric:  quality.VMAFPhone,
		Workers: workers,
	}
}

func mustRun(t *testing.T, req Request) *Results {
	t.Helper()
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompleteness(t *testing.T) {
	req := smallRequest(4)
	res := mustRun(t, req)
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	vid := req.Videos[0].ID()
	for _, scheme := range []string{"CAVA", "RBA"} {
		ss := res.Summaries(scheme, vid)
		if len(ss) != len(req.Traces) {
			t.Fatalf("%s: %d summaries, want %d", scheme, len(ss), len(req.Traces))
		}
		for ti, s := range ss {
			if s.TraceID != req.Traces[ti].ID {
				t.Fatalf("%s summary %d is for trace %s, want %s", scheme, ti, s.TraceID, req.Traces[ti].ID)
			}
			if s.Scheme != scheme || s.VideoID != vid {
				t.Fatalf("misfiled summary: %+v", s)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	a := mustRun(t, smallRequest(1))
	b := mustRun(t, smallRequest(8))
	vid := smallRequest(1).Videos[0].ID()
	for _, scheme := range []string{"CAVA", "RBA"} {
		sa, sb := a.Summaries(scheme, vid), b.Summaries(scheme, vid)
		for i := range sa {
			if sa[i].Q4Quality != sb[i].Q4Quality || sa[i].RebufferSec != sb[i].RebufferSec ||
				sa[i].DataMB != sb[i].DataMB {
				t.Fatalf("%s trace %d: serial and parallel runs differ", scheme, i)
			}
		}
	}
}

func TestSchemeAll(t *testing.T) {
	res := mustRun(t, smallRequest(2))
	all := res.SchemeAll("CAVA")
	if len(all) != 4 {
		t.Fatalf("SchemeAll returned %d summaries, want 4", len(all))
	}
	if res.SchemeAll("nope") != nil {
		t.Error("unknown scheme should return nil")
	}
}

func TestPredictorForHook(t *testing.T) {
	req := smallRequest(2)
	base := player.DefaultConfig()
	req.PredictorFor = func(v *video.Video, tr *trace.Trace) player.Config {
		cfg := base
		cfg.Predictor = bandwidth.NewNoisyOracle(tr, 0, 1)
		return cfg
	}
	res := mustRun(t, req)
	// With a perfect oracle the schemes see bandwidth from chunk 0; the
	// sweep must still be complete and deterministic.
	if len(res.SchemeAll("CAVA")) != 4 {
		t.Error("PredictorFor sweep incomplete")
	}
	res2 := mustRun(t, req)
	a, b := res.SchemeAll("CAVA"), res2.SchemeAll("CAVA")
	for i := range a {
		if a[i].DataMB != b[i].DataMB {
			t.Fatal("oracle-predictor sweep not deterministic")
		}
	}
}

func TestRunPropagatesSessionError(t *testing.T) {
	req := smallRequest(4)
	// An empty trace fails player validation; the sweep must surface that
	// instead of panicking or returning partial results.
	req.Traces = append(req.Traces, &trace.Trace{ID: "broken"})
	res, err := Run(req)
	if err == nil {
		t.Fatal("sweep with an invalid trace returned no error")
	}
	if res != nil {
		t.Fatal("failed sweep returned non-nil results")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not identify the failing session", err)
	}
}

func TestRunSweepMetrics(t *testing.T) {
	req := smallRequest(2)
	reg := telemetry.NewRegistry()
	req.Metrics = reg
	mustRun(t, req)
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	want := len(req.Videos) * len(req.Traces) * len(req.Schemes)
	if !strings.Contains(text, "sim_sessions_total "+strconv.Itoa(want)) {
		t.Errorf("sim_sessions_total != %d in exposition:\n%s", want, text)
	}
	if !strings.Contains(text, "sim_jobs_pending 0") {
		t.Errorf("sim_jobs_pending not drained to 0:\n%s", text)
	}
}

// gatedAlgo blocks its first Select until released, letting a test hold a
// sweep mid-flight deterministically.
type gatedAlgo struct {
	ready   chan<- struct{}
	release <-chan struct{}
	once    bool
}

func (g *gatedAlgo) Name() string { return "Gated" }
func (g *gatedAlgo) Select(abr.State) int {
	if !g.once {
		g.once = true
		g.ready <- struct{}{}
		<-g.release
	}
	return 0
}

// TestPendingGaugeComposesAcrossSweeps pins the Add-vs-Set gauge contract:
// two sweeps sharing one registry must each contribute their own job count
// to sim_jobs_pending while in flight (Set would clobber the first sweep's
// contribution with the second's), and the gauge must drain to zero once
// both finish.
func TestPendingGaugeComposesAcrossSweeps(t *testing.T) {
	reg := telemetry.NewRegistry()
	gauge := reg.Gauge("sim_jobs_pending", "sweep sessions not yet finished")

	release := make(chan struct{})
	launch := func(n int) (<-chan error, int) {
		req := smallRequest(1)
		req.Metrics = reg
		// Buffered: every session's algorithm signals once, the test only
		// waits for the first (the rest must not block their sessions).
		ready := make(chan struct{}, 8)
		req.Schemes = []abr.Scheme{{Name: "Gated", New: func(*video.Video) abr.Algorithm {
			return &gatedAlgo{ready: ready, release: release}
		}}}
		req.Traces = req.Traces[:n]
		done := make(chan error, 1)
		go func() {
			_, err := Run(req)
			done <- err
		}()
		// With one worker, the sweep is now parked inside its first
		// session's first decision; its full job count is pending.
		<-ready
		return done, len(req.Videos) * len(req.Traces) * len(req.Schemes)
	}

	doneA, jobsA := launch(3)
	doneB, jobsB := launch(2)
	if got, want := gauge.Value(), float64(jobsA+jobsB); got != want {
		t.Errorf("two in-flight sweeps: sim_jobs_pending = %v, want %v (Set clobbers, Add composes)", got, want)
	}
	close(release)
	for _, done := range []<-chan error{doneA, doneB} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("after both sweeps finished: sim_jobs_pending = %v, want 0", got)
	}
}

// TestPendingGaugeDrainsOnFailure pins the failure path: a sweep aborted by
// a session error must still take every job's decrement — completed, failed
// and skipped-after-failure alike — so the gauge returns to zero.
func TestPendingGaugeDrainsOnFailure(t *testing.T) {
	req := smallRequest(2)
	reg := telemetry.NewRegistry()
	req.Metrics = reg
	req.Traces = append(req.Traces, &trace.Trace{ID: "broken"})
	if _, err := Run(req); err == nil {
		t.Fatal("sweep with an invalid trace returned no error")
	}
	if got := reg.Gauge("sim_jobs_pending", "").Value(); got != 0 {
		t.Errorf("after failed sweep: sim_jobs_pending = %v, want 0", got)
	}
}
