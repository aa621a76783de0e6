package fleet

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// ckptTestConfig is the shared checkpoint-test fleet: a mixed corpus with
// random offsets and Poisson arrivals, so the snapshot has to carry real
// per-session diversity (different videos, trace rotations, start times).
func ckptTestConfig() Config {
	return Config{
		Videos: []*video.Video{shortVideo(), video.Generate(video.GenConfig{
			Name: "fleet-ckpt-2", Genre: video.Sports,
			ChunkDurSec: 2, DurationSec: 80, Seed: 11,
		})},
		Traces:             []*trace.Trace{trace.GenLTE(0), trace.GenLTE(1), trace.GenFCC(0)},
		Scheme:             fixedScheme(2),
		Sessions:           40,
		ArrivalRatePerSec:  1.5,
		RandomTraceOffsets: true,
		Seed:               42,
	}
}

// TestFleetKillResumeEquivalence is the tentpole contract: a fleet
// checkpointed at an arbitrary event count and resumed — at any worker
// count — finishes with a Result bit-identical to the uninterrupted run.
// The cut points cover "nothing started", "mid-flight", and "almost done";
// the single-shard engine is stepped by hand so each cut lands at an exact,
// reproducible event count.
func TestFleetKillResumeEquivalence(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	dir := t.TempDir()
	cuts := []int64{0, 1, 37, e.expectedEvents / 2, e.expectedEvents - 1}
	for _, cut := range cuts {
		for sh.events < cut && sh.heap.len() > 0 {
			sh.runBatch()
		}
		if err := e.writeCheckpoint(dir); err != nil {
			t.Fatalf("cut %d: checkpoint: %v", cut, err)
		}
		for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			rcfg := cfg
			rcfg.Workers = p
			re, err := Resume(rcfg, dir)
			if err != nil {
				t.Fatalf("cut %d workers %d: resume: %v", cut, p, err)
			}
			got, err := re.Run()
			if err != nil {
				t.Fatalf("cut %d workers %d: run: %v", cut, p, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("cut %d workers %d: resumed Result diverges from the uninterrupted run", cut, p)
			}
		}
	}
}

// TestFleetInterruptResumeEquivalence drives the full supervised path: a
// concurrent RunContext is cancelled at a nondeterministic point (the cut
// depends on goroutine scheduling), writes its final checkpoint, and the
// resumed run must STILL be bit-identical to the uninterrupted baseline —
// every consistent cut is a valid restart point.
func TestFleetInterruptResumeEquivalence(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 3
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	icfg := cfg
	icfg.CrashHook = func(int32, int) {
		if seen.Add(1) == 50 {
			cancel()
		}
	}
	dir := t.TempDir()
	e, err := New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := e.RunContext(ctx, RunOptions{CheckpointDir: dir})
	if err == nil {
		// The fleet can win the race and finish before the supervisor sees
		// the cancel; then the run is simply complete and must match.
		if !reflect.DeepEqual(want, partial) {
			t.Error("uninterrupted RunContext diverges from Run")
		}
		return
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunContext error = %v, want ErrInterrupted", err)
	}
	if partial == nil || partial.Completed > cfg.Sessions {
		t.Fatalf("interrupted run returned partial %+v", partial)
	}

	re, err := Resume(cfg, dir)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("run resumed from an interrupt checkpoint diverges from the uninterrupted run")
	}
}

// TestControlBarrierBackToBackPause pins the barrier against stale parks
// from a previous generation: a pauseAll issued immediately after
// resumeAll (the shape of a pending SIGINT selected right after a
// periodic checkpoint) must not count shards still waking from the prior
// barrier as quiescent. Fake shard workers flag themselves mid-batch;
// the supervisor pauses with no gap after each resume and asserts the
// quiescence contract across a sleep standing in for the checkpoint
// write. A barrier that lets resumeAll return before the previous
// generation drains fails here within a few cycles.
func TestControlBarrierBackToBackPause(t *testing.T) {
	const workers = 4
	ctl := newControl(workers)
	var inBatch [workers]atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				if !ctl.gate() {
					return
				}
				inBatch[i].Store(true)
				time.Sleep(50 * time.Microsecond)
				inBatch[i].Store(false)
			}
			ctl.shardDone()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(cycle int) {
		for i := range inBatch {
			if inBatch[i].Load() {
				t.Fatalf("cycle %d: pauseAll reported quiescence while worker %d is mid-batch (stale parks from the previous generation)", cycle, i)
			}
		}
	}
	running := true
	for cycle := 0; running; cycle++ {
		select {
		case <-done:
			running = false
		default:
		}
		ctl.pauseAll()
		check(cycle)
		time.Sleep(200 * time.Microsecond) // the "checkpoint write"
		check(cycle)
		ctl.resumeAll()
	}
}

// TestFleetRunContextCompletes pins that an unsupervised-looking
// RunContext (no checkpoint dir, no watchdog, background context) is
// observationally identical to Run.
func TestFleetRunContextCompletes(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 3
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("RunContext result diverges from Run")
	}
}

// TestFleetQuarantine pins panic isolation: a panic injected into one
// session's chunk step retires exactly that session with a structured
// record, the fleet completes the rest, the event accounting closes as
// Events == ExpectedEvents - LostEvents, and the distributions cover only
// the surviving population. The quarantined Result must also be
// worker-count independent (stacks excepted — they name goroutines).
func TestFleetQuarantine(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Metrics = telemetry.NewRegistry()
	cfg.CrashHook = func(id int32, chunk int) {
		if id == 3 && chunk == 5 {
			panic("injected fault")
		}
	}

	run := func(workers int) *Result {
		c := cfg
		c.Workers = workers
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return res
	}
	res := run(1)

	if res.Completed != cfg.Sessions-1 || len(res.Quarantined) != 1 {
		t.Fatalf("completed %d, quarantined %d; want %d and 1",
			res.Completed, len(res.Quarantined), cfg.Sessions-1)
	}
	q := res.Quarantined[0]
	if q.SessionID != 3 || q.Chunk != 5 {
		t.Errorf("quarantined session %d at chunk %d, want 3 at 5", q.SessionID, q.Chunk)
	}
	if !strings.Contains(q.Reason, "injected fault") {
		t.Errorf("Reason %q does not carry the panic value", q.Reason)
	}
	if !strings.Contains(q.Stack, "advanceSession") {
		t.Errorf("Stack does not reach the panicking step:\n%s", q.Stack)
	}
	for _, e := range res.Invariants(cfg) {
		t.Errorf("invariant violated: %v", e)
	}
	if res.LostEvents <= 0 {
		t.Errorf("LostEvents = %d, want > 0 for a mid-session quarantine", res.LostEvents)
	}
	if res.RebufferSec.Len() != cfg.Sessions-1 {
		t.Errorf("distributions hold %d samples, want %d (quarantined slot must not dilute)",
			res.RebufferSec.Len(), cfg.Sessions-1)
	}

	reg := cfg.Metrics
	cfg.Metrics = nil
	multi := run(4)
	clearStacks := func(r *Result) *Result {
		c := *r
		c.Quarantined = append([]Quarantine(nil), r.Quarantined...)
		for i := range c.Quarantined {
			c.Quarantined[i].Stack = ""
		}
		return &c
	}
	if !reflect.DeepEqual(clearStacks(res), clearStacks(multi)) {
		t.Error("quarantined Result differs across worker counts")
	}
	// Counter handles are lookup-or-create: re-asking the registry returns
	// the handle the engine incremented.
	if got := reg.Counter("fleet_sessions_quarantined_total", "").Value(); got != 1 {
		t.Errorf("fleet_sessions_quarantined_total = %d, want 1", got)
	}
}

// TestFleetQuarantineCheckpointResume pins that quarantine records survive
// a checkpoint/resume cycle: the resumed run's Result equals the
// uninterrupted faulted run's, including the Quarantined list (stacks
// compared for presence, not content — the resumed stack is the original
// crash's, the baseline's is a different goroutine's).
func TestFleetQuarantineCheckpointResume(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 1
	cfg.CrashHook = func(id int32, chunk int) {
		if id == 7 && chunk == 2 {
			panic("early fault")
		}
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	// Step until the fault has fired, then some more so the cut has the
	// quarantine plus live in-flight sessions.
	for len(sh.quarantined) == 0 && sh.heap.len() > 0 {
		sh.runBatch()
	}
	for i := 0; i < 10 && sh.heap.len() > 0; i++ {
		sh.runBatch()
	}
	dir := t.TempDir()
	if err := e.writeCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.CrashHook = nil // the fault already happened; resume replays clean
	re, err := Resume(rcfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Quarantined) != 1 || got.Quarantined[0].SessionID != 7 || got.Quarantined[0].Stack == "" {
		t.Fatalf("resumed Quarantined = %+v, want session 7 with its original stack", got.Quarantined)
	}
	for _, r := range []*Result{want, got} {
		for i := range r.Quarantined {
			r.Quarantined[i].Stack = ""
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("resumed faulted run diverges from the uninterrupted faulted run")
	}
}

// TestFleetWatchdog pins the no-progress supervisor: a session whose step
// blocks forever must not hang the run — the watchdog fails it with a
// diagnostic naming the stalled shard.
func TestFleetWatchdog(t *testing.T) {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) }) // release the stuck goroutine
	cfg := ckptTestConfig()
	cfg.Sessions = 8
	cfg.Workers = 2
	cfg.CrashHook = func(id int32, chunk int) {
		if id == 0 {
			<-block
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.RunContext(context.Background(), RunOptions{WatchdogSec: 0.05})
	if err == nil {
		t.Fatalf("watchdog did not fire; got result %+v", res)
	}
	if errors.Is(err, ErrInterrupted) {
		t.Fatalf("watchdog returned ErrInterrupted: %v", err)
	}
	for _, wantSub := range []string{"watchdog", "no event progress", "goroutine"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("watchdog error missing %q:\n%v", wantSub, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("watchdog took %v to fire", elapsed)
	}
}

// TestFleetResumeRejections covers every way a checkpoint can be unusable:
// bit rot (checksum), a mismatched run configuration (fingerprint), a
// truncated file, a missing file, and Collect mode. None may produce a
// silently wrong engine.
func TestFleetResumeRejections(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	for i := 0; i < 40 && sh.heap.len() > 0; i++ {
		sh.runBatch()
	}
	dir := t.TempDir()
	if err := e.writeCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	path := CheckpointPath(dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	expectErr := func(name, wantSub string, f func() (*Engine, error)) {
		t.Helper()
		if _, err := f(); err == nil {
			t.Errorf("%s: resume succeeded, want error", name)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q missing %q", name, err, wantSub)
		}
	}

	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr("flipped bit", "checksum", func() (*Engine, error) { return Resume(cfg, dir) })

	if err := os.WriteFile(path, pristine[:len(pristine)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr("truncated", "checksum", func() (*Engine, error) { return Resume(cfg, dir) })

	restore()
	expectErr("wrong seed", "fingerprint", func() (*Engine, error) {
		c := cfg
		c.Seed++
		return Resume(c, dir)
	})
	expectErr("wrong truncation", "fingerprint", func() (*Engine, error) {
		c := cfg
		c.MaxChunks = 5
		return Resume(c, dir)
	})
	expectErr("collect mode", "Collect", func() (*Engine, error) {
		c := cfg
		c.Collect = true
		return Resume(c, dir)
	})
	expectErr("missing file", CheckpointFile, func() (*Engine, error) {
		return Resume(cfg, t.TempDir())
	})

	// Control: the pristine file restored above must still resume cleanly.
	if _, err := Resume(cfg, dir); err != nil {
		t.Errorf("pristine checkpoint rejected: %v", err)
	}

	// Writing a checkpoint in Collect mode is refused up front.
	ccfg := cfg
	ccfg.Collect = true
	ce, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.RunContext(context.Background(), RunOptions{CheckpointDir: dir}); err == nil {
		t.Error("RunContext accepted CheckpointDir with Collect set")
	}
}
