package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
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

// withoutStacks returns a copy of r with every quarantine stack cleared.
// Two recoveries of the same injected fault capture the stacks of
// different goroutines, so Results are compared without them.
func withoutStacks(r *Result) *Result {
	c := *r
	c.Quarantined = append([]Quarantine(nil), r.Quarantined...)
	for i := range c.Quarantined {
		c.Quarantined[i].Stack = ""
	}
	return &c
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
	if partial == nil || partial.Completed > cfg.Sessions ||
		partial.SessionLenSec.Len() != partial.Completed {
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

// TestFleetInterruptStopsMidEpoch pins how soon a stopped shard stops. A
// one-worker fleet of 500 sessions, all arriving at time 0, so its first
// epoch holds at least 500 events, is cancelled at its 10th event, and
// the crash hook holds the shard there until RunContext has set the abort
// flag. The shard must then step fewer than progressEvents more events,
// not the rest of the epoch; RunContext returns ErrInterrupted, and the run
// resumed from its final checkpoint equals the uninterrupted one.
func TestFleetInterruptStopsMidEpoch(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Sessions = 500
	cfg.ArrivalRatePerSec = 0
	cfg.Workers = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		e                *Engine
		seen, afterAbort int
		aborted          bool
	)
	icfg := cfg
	icfg.CrashHook = func(int32, int) {
		seen++
		switch {
		case aborted:
			afterAbort++
		case seen == 10:
			cancel()
			for !e.abort.Load() {
				time.Sleep(time.Millisecond)
			}
			aborted = true
		}
	}
	if e, err = New(icfg); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := e.RunContext(ctx, RunOptions{CheckpointDir: dir}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunContext cancelled at event 10 returned %v, want ErrInterrupted", err)
	}
	if !aborted || afterAbort >= progressEvents {
		t.Errorf("the shard stepped %d events after the abort flag was set (aborted %t), want fewer than %d",
			afterAbort, aborted, progressEvents)
	}
	re, err := Resume(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("run resumed from a mid-epoch interrupt diverges from the uninterrupted run")
	}
	t.Logf("stepped %d events, %d of them after the abort flag was set", seen, afterAbort)
}

// TestFleetPeriodicCheckpointResume covers the periodic checkpoint: a
// supervised run writes a snapshot every 2 ms while a second goroutine
// keeps resuming the latest one and running it to completion. Every
// resumed Result must equal the uninterrupted run (quarantine stacks
// aside), and at least one resume must start from a cut taken mid-run
// (some session still unfinished). One session panics, so the snapshots
// also carry a quarantine record; the hook slows each step so the run
// spans many checkpoint intervals.
func TestFleetPeriodicCheckpointResume(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.Workers = 3
	fault := func(id int32, chunk int) {
		if id == 7 && chunk == 2 {
			panic("periodic fault")
		}
	}
	cfg.CrashHook = fault
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want = withoutStacks(want)

	dir := t.TempDir()
	stop := make(chan struct{})
	var resumes, midRun int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			re, err := Resume(cfg, dir)
			if errors.Is(err, os.ErrNotExist) {
				time.Sleep(time.Millisecond) // no checkpoint written yet
				continue
			}
			if err != nil {
				t.Errorf("resume %d: %v", resumes, err)
				return
			}
			partial := false
			for id := range re.sessions {
				partial = partial || !re.sessions[id].done.Load()
			}
			got, err := re.Run()
			if err != nil {
				t.Errorf("resume %d: run: %v", resumes, err)
				return
			}
			if !reflect.DeepEqual(want, withoutStacks(got)) {
				t.Errorf("resume %d: Result diverges from the uninterrupted run", resumes)
				return
			}
			resumes++
			if partial {
				midRun++
			}
		}
	}()

	pcfg := cfg
	pcfg.CrashHook = func(id int32, chunk int) {
		time.Sleep(20 * time.Microsecond)
		fault(id, chunk)
	}
	e, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), RunOptions{CheckpointDir: dir, CheckpointEverySec: 0.002})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, withoutStacks(res)) {
		t.Error("checkpointed run diverges from the uninterrupted run")
	}
	if midRun == 0 {
		t.Errorf("%d resumes, none from a mid-run checkpoint", resumes)
	}
	t.Logf("%d resumes, %d from mid-run checkpoints", resumes, midRun)
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
	if !reflect.DeepEqual(withoutStacks(res), withoutStacks(multi)) {
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
	if !reflect.DeepEqual(withoutStacks(want), withoutStacks(got)) {
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
// truncated file, a missing file, and a file in an older layout (magic).
// None may produce a silently wrong engine.
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
	expectErr("missing file", CheckpointFile, func() (*Engine, error) {
		return Resume(cfg, t.TempDir())
	})

	// Control: the pristine file restored above must still resume cleanly.
	if _, err := Resume(cfg, dir); err != nil {
		t.Errorf("pristine checkpoint rejected: %v", err)
	}

	// A file of the previous layout, with a checksum that matches, fails
	// on its magic before any record is read.
	old := append([]byte(nil), pristine...)
	copy(old, "cavaflt1")
	body := old[:len(old)-8]
	sum := fnv.New64a()
	sum.Write(body)
	binary.LittleEndian.PutUint64(old[len(body):], sum.Sum64())
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr("previous layout", "bad magic", func() (*Engine, error) { return Resume(cfg, dir) })
}

// TestFleetResumeRejectsBadValues covers records that pass the checksum
// and the structure checks but hold values no run produces: a done
// session whose event count is not its chunk budget, a quarantine past
// the budget, and non-finite samples. Each is refused with an error that
// names the session and the field.
func TestFleetResumeRejectsBadValues(t *testing.T) {
	cfg := ckptTestConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const id = 7
	budget := uint64(e.chunkBudget(id))
	finite := [9]float64{1, 2, 3, 4, 50, 0.5, 2, 3, 12}
	done := func(events uint64, samples [9]float64) func(*ckptWriter) {
		return func(w *ckptWriter) {
			w.u8(ckptDone)
			w.u64(events)
			for _, x := range samples {
				w.u64(math.Float64bits(x))
			}
		}
	}
	with := func(i int, x float64) [9]float64 {
		s := finite
		s[i] = x
		return s
	}
	quarantined := func(chunk uint64) func(*ckptWriter) {
		return func(w *ckptWriter) {
			w.u8(ckptQuarantined)
			w.u64(chunk)
			w.str("injected")
			w.str("")
		}
	}
	cases := []struct {
		name   string
		record func(*ckptWriter)
		want   string // "" resumes
	}{
		{"done at budget", done(budget, finite), ""},
		{"quarantine at chunk 0", quarantined(0), ""},
		{"done past budget", done(budget+1, finite), "session 7: done record holds"},
		{"done short of budget", done(budget-1, finite), "session 7: done record holds"},
		{"done with a fuzzed count", done(9007199254741292, finite), "want its chunk budget"},
		{"NaN rebuffering", done(budget, with(0, math.NaN())), "session 7: sample RebufferSec is NaN"},
		{"infinite data volume", done(budget, with(8, math.Inf(1))), "session 7: sample DataMB is +Inf"},
		{"negative infinite quality", done(budget, with(4, math.Inf(-1))), "sample AvgQuality is -Inf"},
		{"quarantine past budget", quarantined(budget + 1), "session 7: quarantine record's chunk"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		var buf bytes.Buffer
		w := newCkptWriter(&buf)
		w.raw([]byte(ckptMagic))
		w.str(configFingerprint(cfg))
		w.u64(uint64(cfg.Sessions))
		for s := 0; s < cfg.Sessions; s++ {
			if s == id {
				c.record(w)
			} else {
				w.u8(ckptPending)
			}
		}
		w.trailer()
		if err := os.WriteFile(CheckpointPath(dir), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Resume(cfg, dir)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: resume failed: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: resume succeeded, want an error containing %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

// resumeErr is the shape of every refusal FuzzResume accepts: a session
// in range and what is wrong with its record.
var resumeErr = regexp.MustCompile(`^fleet: resume: session (\d+): \S`)

// FuzzResume frames fuzzed session records under a valid magic, config
// fingerprint and trailer, over ckptTestConfig's 40 sessions, so every
// input passes the checksum and reaches the record parser. Resume must
// never panic. It either refuses the file with an error that names a
// session of the fleet and what is wrong with its record (or, when all 40
// records parsed, the bytes left after them), or the engine it returns
// runs to completion, its event and session accounting closed. The seeds
// in testdata/fuzz/FuzzResume are TestFleetResumeRejectsBadValues' cases:
// session 7's record, the other 39 pending.
func FuzzResume(f *testing.F) {
	cfg := ckptTestConfig()
	fingerprint := configFingerprint(cfg)
	f.Fuzz(func(t *testing.T, records []byte) {
		var buf bytes.Buffer
		w := newCkptWriter(&buf)
		w.raw([]byte(ckptMagic))
		w.str(fingerprint)
		w.u64(uint64(cfg.Sessions))
		w.raw(records)
		w.trailer()
		dir := t.TempDir()
		if err := os.WriteFile(CheckpointPath(dir), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Resume(cfg, dir)
		if err != nil {
			msg := err.Error()
			if m := resumeErr.FindStringSubmatch(msg); m != nil {
				if id, _ := strconv.Atoi(m[1]); id < cfg.Sessions {
					return
				}
			}
			if strings.HasSuffix(msg, "trailing bytes after last session record") {
				return
			}
			t.Fatalf("resume refused the file without naming a session and its field: %v", err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
	})
}
