package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"cava/internal/fleet"
)

// CrashConfig holds the crash soak's own settings. The fleet it attacks is
// the fleet.Config passed to RunCrash, run as given; its Seed also drives
// the fault schedule (which sessions panic, at which chunk), and the
// interrupt cut is derived from the corpus. Same seed, same faults.
type CrashConfig struct {
	// Faults is how many sessions get a panic injected into one of their
	// chunk steps (default 25, at most the fleet size). Victim chunks are
	// drawn below every video's chunk budget, so every scheduled fault
	// actually fires.
	Faults int
	// CheckpointDir hosts the mid-run checkpoint (required): the run is
	// interrupted once, checkpointed there, and resumed.
	CheckpointDir string
}

// CrashReport aggregates one crash soak for invariant checking.
type CrashReport struct {
	// Result is the final fleet Result: the resumed run's, or the second
	// leg's when the interrupt never landed.
	Result *fleet.Result
	// FaultsInjected is the scheduled panic count; a healthy run
	// quarantines exactly this many sessions — no faults lost, no
	// collateral damage.
	FaultsInjected int
	// Interrupted and Resumed report the checkpoint leg actually engaged:
	// the cancel landed mid-run and the final result came from a resumed
	// engine.
	Interrupted bool
	Resumed     bool
	// ResumeMatches is the headline: the resumed run's Result equals the
	// uninterrupted baseline's (quarantine stacks excepted — they name
	// goroutines of different processes-in-spirit).
	ResumeMatches bool
	// WallSec is the soak's wall-clock duration (reporting only).
	WallSec float64

	cfg fleet.Config // the fleet every leg ran, for Result.Invariants
}

// RunCrash executes one crash soak against the fleet cfg describes —
// seeded panics inside randomly chosen sessions' chunk steps, a mid-run
// interrupt that forces a checkpoint, and a resume that must land
// bit-identical to the run that was never interrupted. Panic isolation,
// checkpoint/resume and event accounting are all load-bearing at once,
// which is exactly the state a production OOM-kill or crashing ABR scheme
// would find them in. The legs: an uninterrupted baseline run with the
// seeded faults, then the same run interrupted mid-flight (checkpoint on
// the way out) and resumed to completion. cfg.CrashHook is replaced by the
// fault schedule. An error means the harness itself could not run;
// fault-tolerance violations land in the report.
func RunCrash(cfg fleet.Config, crash CrashConfig) (*CrashReport, error) {
	if len(cfg.Videos) == 0 || len(cfg.Traces) == 0 || cfg.Scheme.New == nil {
		return nil, errors.New("chaos: RunCrash needs a fleet with Videos, Traces and Scheme")
	}
	if crash.CheckpointDir == "" {
		return nil, errors.New("chaos: RunCrash needs a CheckpointDir for the interrupt/resume leg")
	}
	if crash.Faults <= 0 {
		crash.Faults = 25
	}
	if crash.Faults > cfg.Sessions {
		crash.Faults = cfg.Sessions
	}
	start := time.Now()

	// Victim chunks stay below every video's chunk budget so each fault is
	// guaranteed to fire regardless of which video the session drew.
	minBudget := math.MaxInt
	for _, v := range cfg.Videos {
		n := v.NumChunks()
		if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
			n = cfg.MaxChunks
		}
		if n < minBudget {
			minBudget = n
		}
	}
	if minBudget < 2 {
		return nil, fmt.Errorf("chaos: chunk budget %d leaves no room for mid-session faults", minBudget)
	}
	// The cut is one third of a lower bound on the total event count:
	// every non-victim session steps at least minBudget chunks, and every
	// victim fires at least one event before its panic. Deriving the cut
	// from MaxChunks instead would overshoot on a corpus of short videos
	// and the interrupt leg would never engage.
	budget := int64(cfg.Sessions-crash.Faults)*int64(minBudget) + int64(crash.Faults)
	interruptAfterEvents := budget / 3
	if interruptAfterEvents < 1 {
		interruptAfterEvents = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	victims := make(map[int32]int, crash.Faults)
	for len(victims) < crash.Faults {
		id := int32(rng.Intn(cfg.Sessions))
		if _, dup := victims[id]; dup {
			continue
		}
		victims[id] = 1 + rng.Intn(minBudget-1)
	}
	// faultHook panics at each victim's chunk; with a counter attached it
	// also trips the interrupt once the event count crosses the cut.
	faultHook := func(counter *atomic.Int64, cancel context.CancelFunc) func(int32, int) {
		return func(id int32, chunk int) {
			if counter != nil && counter.Add(1) == interruptAfterEvents {
				cancel()
			}
			if c, ok := victims[id]; ok && chunk == c {
				//lint:allow nopanic deliberate fault injection: the soak exists to prove the engine survives this panic
				panic(fmt.Sprintf("chaos: injected fault in session %d at chunk %d", id, chunk))
			}
		}
	}

	// Leg 1: the uninterrupted baseline, faults and all.
	bcfg := cfg
	bcfg.CrashHook = faultHook(nil, nil)
	want, err := fleet.Run(bcfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline run: %w", err)
	}

	// Leg 2: the same run, cancelled mid-flight with a checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	icfg := cfg
	icfg.CrashHook = faultHook(&events, cancel)
	e, err := fleet.New(icfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: interrupted run: %w", err)
	}
	partial, runErr := e.RunContext(ctx, fleet.RunOptions{CheckpointDir: crash.CheckpointDir})
	interrupted := errors.Is(runErr, fleet.ErrInterrupted)
	if runErr != nil && !interrupted {
		return nil, fmt.Errorf("chaos: interrupted run: %w", runErr)
	}

	// Leg 3: resume from the checkpoint and finish. The hook rides along —
	// faults that had not yet fired at the cut must still fire.
	final := partial
	resumed := false
	if interrupted {
		rcfg := cfg
		rcfg.CrashHook = faultHook(nil, nil)
		re, err := fleet.Resume(rcfg, crash.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("chaos: resume: %w", err)
		}
		if final, err = re.Run(); err != nil {
			return nil, fmt.Errorf("chaos: resumed run: %w", err)
		}
		resumed = true
	}

	return &CrashReport{
		Result:         final,
		FaultsInjected: len(victims),
		Interrupted:    interrupted,
		Resumed:        resumed,
		ResumeMatches:  resultsMatch(want, final),
		WallSec:        time.Since(start).Seconds(),
		cfg:            cfg,
	}, nil
}

// resultsMatch compares two fleet Results for bit-identity, ignoring
// quarantine stacks (two recoveries of the same injected fault capture
// stacks of different goroutines).
func resultsMatch(a, b *fleet.Result) bool {
	strip := func(r *fleet.Result) fleet.Result {
		c := *r
		c.Quarantined = append([]fleet.Quarantine(nil), r.Quarantined...)
		for i := range c.Quarantined {
			c.Quarantined[i].Stack = ""
		}
		return c
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// Invariants checks the report against the crash-tolerance contract and
// returns every violation (empty means the soak passed):
//
//   - the fleet contract holds around the faults (fleet.Result.Invariants:
//     closed accounting Events == ExpectedEvents - LostEvents, completed +
//     quarantined partitioning the population, and so on);
//   - isolation is exact: every injected fault quarantined its session,
//     nothing else was quarantined, and the faults cost events;
//   - the checkpoint leg engaged: the run was interrupted and resumed;
//   - resume is lossless: the resumed run's Result is bit-identical to
//     the uninterrupted baseline's.
func (r *CrashReport) Invariants() []error {
	out := r.Result.Invariants(r.cfg)
	if q := len(r.Result.Quarantined); q != r.FaultsInjected {
		out = append(out, fmt.Errorf("chaos: %d sessions quarantined for %d injected faults (lost faults or collateral quarantine)",
			q, r.FaultsInjected))
	}
	if r.FaultsInjected > 0 && r.Result.LostEvents <= 0 {
		out = append(out, fmt.Errorf("chaos: %d faults injected but no events lost (faults did not land mid-session)",
			r.FaultsInjected))
	}
	if !r.Interrupted || !r.Resumed {
		out = append(out, fmt.Errorf("chaos: interrupt leg never engaged (interrupted=%v resumed=%v)",
			r.Interrupted, r.Resumed))
	}
	if !r.ResumeMatches {
		out = append(out, errors.New("chaos: resumed run diverges from the uninterrupted baseline"))
	}
	return out
}
