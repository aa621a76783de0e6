package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/chaos/leakcheck"
	"cava/internal/core"
	"cava/internal/fleet"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// crashTestFleet is the soak fleet: two thousand CAVA sessions of 40
// chunks, Poisson arrivals at 20/s and random trace offsets over a mixed
// LTE/FCC corpus, sharded across four workers.
func crashTestFleet(seed int64) fleet.Config {
	return fleet.Config{
		Videos: []*video.Video{
			video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264),
			video.FFmpegVideo(video.Title{Name: "BBB", Genre: video.Animation}, video.H264),
		},
		Traces: []*trace.Trace{
			trace.GenLTE(0), trace.GenLTE(1), trace.GenLTE(2), trace.GenFCC(0),
		},
		Scheme:             abr.Scheme{Name: "CAVA", Key: "cava", New: core.Factory()},
		Sessions:           2000,
		Workers:            4,
		ArrivalRatePerSec:  20,
		RandomTraceOffsets: true,
		Seed:               seed,
		MaxChunks:          40,
	}
}

func TestCrashConfigValidation(t *testing.T) {
	if _, err := RunCrash(fleet.Config{}, CrashConfig{CheckpointDir: t.TempDir()}); err == nil {
		t.Fatal("RunCrash accepted an empty fleet")
	}
	if _, err := RunCrash(crashTestFleet(13), CrashConfig{}); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("RunCrash without CheckpointDir: %v", err)
	}
}

// TestCrashSoak is the `make soak-crash` cell: the fleet engine under
// seeded in-step panics, a mid-run interrupt with checkpoint, and a
// resume — race-enabled — followed by a process-style disk-cache
// corruption pass. Asserts the crash-tolerance contract (exact quarantine,
// closed accounting, bit-identical resume), checksum detection and
// recompute on the cache, and goroutines back to baseline.
func TestCrashSoak(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()

	cfg := crashTestFleet(13)
	cfg.Metrics = reg
	rep, err := RunCrash(cfg, CrashConfig{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Invariants() {
		t.Errorf("invariant violated: %v", e)
	}
	if got := reg.Counter("fleet_sessions_quarantined_total", "").Value(); got == 0 {
		t.Error("fleet_sessions_quarantined_total never incremented")
	}
	if got := reg.Counter("fleet_checkpoints_written_total", "").Value(); rep.Interrupted && got == 0 {
		t.Error("run was interrupted with a checkpoint dir but fleet_checkpoints_written_total stayed 0")
	}
	res := rep.Result
	t.Logf("crash soak: %d sessions, %d quarantined of %d faults, %d/%d events (%d lost), interrupted=%v resumed=%v match=%v (%.2f wall s)",
		res.Sessions, len(res.Quarantined), rep.FaultsInjected, res.Events, res.ExpectedEvents,
		res.LostEvents, rep.Interrupted, rep.Resumed, rep.ResumeMatches, rep.WallSec)

	cacheCorruptionLeg(t)
}

// TestCrashShortCorpusEngagesInterrupt pins the interrupt cut against a
// corpus of videos much shorter than MaxChunks: the cut must be
// derived from the real per-session event budget (min NumChunks), so the
// cancel still fires mid-run and the interrupt/resume leg engages. A
// MaxChunks-derived cut overshoots here — the event count never
// reaches it and a healthy engine reports a spurious "interrupt leg
// never engaged" violation.
func TestCrashShortCorpusEngagesInterrupt(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := crashTestFleet(29)
	cfg.Videos = []*video.Video{
		video.Generate(video.GenConfig{
			Name: "crash-short-1", Genre: video.SciFi,
			ChunkDurSec: 2, DurationSec: 12, Seed: 7,
		}),
		video.Generate(video.GenConfig{
			Name: "crash-short-2", Genre: video.Sports,
			ChunkDurSec: 2, DurationSec: 16, Seed: 8,
		}),
	}
	cfg.Sessions = 800
	cfg.Workers = 2
	// MaxChunks stays at 40, far above the 6-chunk shortest video: the cut
	// has to come from the corpus.
	rep, err := RunCrash(cfg, CrashConfig{Faults: 4, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Invariants() {
		t.Errorf("invariant violated: %v", e)
	}
}

// cacheCorruptionLeg seeds a checksummed disk cache, damages entries the
// three ways a crashing process or decaying disk can (flipped payload
// byte, truncated tail, mangled header), and proves a fresh cache detects
// every one, quarantines the bytes, recomputes, and leaves the store fully
// healed for the next reader.
func cacheCorruptionLeg(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	const kind = "sweep"
	const keys = 8
	keyName := func(i int) string { return strings.Repeat("k", 3) + string(rune('a'+i)) }

	seed := cache.New(cache.WithDir(dir))
	for i := 0; i < keys; i++ {
		i := i
		if _, err := cache.GetOrComputeJSON(seed, kind, keyName(i), func() (int, error) { return i * i, nil }); err != nil {
			t.Fatal(err)
		}
	}

	damage := map[int]func(path string, raw []byte) []byte{
		1: func(_ string, raw []byte) []byte { // bit rot in the payload
			raw[len(raw)-1] ^= 0x08
			return raw
		},
		4: func(_ string, raw []byte) []byte { // torn tail
			return raw[:len(raw)-1]
		},
		6: func(_ string, raw []byte) []byte { // mangled header
			return append([]byte("abrcache1 zzzz\n"), raw...)
		},
	}
	for i, f := range damage {
		path := filepath.Join(dir, kind, keyName(i)+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(path, raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	recomputes := 0
	fresh := cache.New(cache.WithDir(dir))
	for i := 0; i < keys; i++ {
		i := i
		v, err := cache.GetOrComputeJSON(fresh, kind, keyName(i), func() (int, error) {
			recomputes++
			return i * i, nil
		})
		if err != nil || v != i*i {
			t.Fatalf("key %d after corruption: %v, %v", i, v, err)
		}
	}
	if s := fresh.Stats(kind); s.Corrupt != uint64(len(damage)) {
		t.Errorf("Stats.Corrupt = %d, want %d", s.Corrupt, len(damage))
	}
	if recomputes != len(damage) {
		t.Errorf("recomputed %d entries, want exactly the %d damaged ones", recomputes, len(damage))
	}
	for i := range damage {
		if _, err := os.Stat(filepath.Join(dir, kind, keyName(i)+".json.corrupt")); err != nil {
			t.Errorf("damaged entry %d not quarantined: %v", i, err)
		}
	}

	// The store healed: a third process hits every key, nothing corrupt.
	healed := cache.New(cache.WithDir(dir))
	for i := 0; i < keys; i++ {
		if _, err := cache.GetOrComputeJSON(healed, kind, keyName(i), func() (int, error) {
			t.Fatalf("key %d recomputed after heal", i)
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := healed.Stats(kind); s.Corrupt != 0 || s.Hits != keys {
		t.Errorf("healed stats = %+v, want %d hits 0 corrupt", s, keys)
	}
	t.Logf("cache leg: %d entries, %d damaged, all detected, quarantined and recomputed", keys, len(damage))
}
