package sim

import (
	"reflect"
	"strings"
	"testing"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/player"
	"cava/internal/trace"
	"cava/internal/video"
)

// TestRunRejectsDuplicateSchemeNames is the regression test for the silent
// cell collision: two schemes sharing a name used to merge into one cell,
// where the dedup then dropped half the sessions and left zero-valued
// summaries. Run must refuse the request instead.
func TestRunRejectsDuplicateSchemeNames(t *testing.T) {
	req := smallRequest(2)
	req.Schemes = []abr.Scheme{
		{Name: "Fixed", New: abr.Fixed(0)},
		{Name: "Fixed", New: abr.Fixed(2)},
	}
	res, err := Run(req)
	if err == nil {
		t.Fatal("duplicate scheme names accepted")
	}
	if res != nil {
		t.Fatal("failed request returned results")
	}
	if !strings.Contains(err.Error(), "Fixed") {
		t.Errorf("error %q does not name the colliding scheme", err)
	}
}

// TestRunRejectsDuplicateVideos pins the same refusal for videos: a video
// listed twice would put two sessions into each trace slot of its cells.
func TestRunRejectsDuplicateVideos(t *testing.T) {
	req := smallRequest(2)
	req.Videos = append(req.Videos, req.Videos[0])
	res, err := Run(req)
	if err == nil {
		t.Fatal("duplicate video accepted")
	}
	if res != nil {
		t.Fatal("failed request returned results")
	}
	if want := "sim: duplicate video \"" + req.Videos[0].ID() + "\""; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestRunKeysCellsBySchemeLabel is the regression test for keying cells by
// algo.Name(): a scheme whose constructor names the algorithm differently
// was unfindable via Results.Summaries, and two labeled variants of one
// algorithm collided.
func TestRunKeysCellsBySchemeLabel(t *testing.T) {
	req := smallRequest(2)
	// Both schemes build abr.Fixed, whose Name() is always "Fixed" — the
	// labels differ from the algorithm name AND from each other.
	req.Schemes = []abr.Scheme{
		{Name: "floor", New: abr.Fixed(0)},
		{Name: "ceiling", New: abr.Fixed(99)},
	}
	res := mustRun(t, req)
	vid := req.Videos[0].ID()

	if got := res.Summaries("Fixed", vid); got != nil {
		t.Fatalf("cells keyed by algorithm name, not scheme label (found %d summaries under %q)",
			len(got), "Fixed")
	}
	floor := res.Summaries("floor", vid)
	ceiling := res.Summaries("ceiling", vid)
	if len(floor) != len(req.Traces) || len(ceiling) != len(req.Traces) {
		t.Fatalf("labels unfindable: floor=%d ceiling=%d summaries, want %d each",
			len(floor), len(ceiling), len(req.Traces))
	}
	// The two variants stream different tracks, so they must not have been
	// conflated: the ceiling sessions move strictly more data.
	for i := range floor {
		if floor[i].Scheme != "floor" || ceiling[i].Scheme != "ceiling" {
			t.Fatalf("summary labels not rewritten to the sweep label: %q / %q",
				floor[i].Scheme, ceiling[i].Scheme)
		}
		if ceiling[i].DataMB <= floor[i].DataMB {
			t.Fatalf("trace %d: ceiling (%.2f MB) <= floor (%.2f MB) — cells conflated?",
				i, ceiling[i].DataMB, floor[i].DataMB)
		}
	}
}

// TestRunTraceOrderDeterministicParallel verifies that under heavy worker
// parallelism each cell's summaries stay in trace order, repeatably.
func TestRunTraceOrderDeterministicParallel(t *testing.T) {
	req := smallRequest(12)
	for round := 0; round < 3; round++ {
		res := mustRun(t, req)
		for _, scheme := range []string{"CAVA", "RBA"} {
			ss := res.Summaries(scheme, req.Videos[0].ID())
			if len(ss) != len(req.Traces) {
				t.Fatalf("round %d %s: %d summaries, want %d", round, scheme, len(ss), len(req.Traces))
			}
			for ti, s := range ss {
				if s.TraceID != req.Traces[ti].ID {
					t.Fatalf("round %d %s slot %d holds trace %s, want %s",
						round, scheme, ti, s.TraceID, req.Traces[ti].ID)
				}
			}
		}
	}
}

func TestFingerprintProperties(t *testing.T) {
	a, okA := smallRequest(2).Fingerprint()
	b, okB := smallRequest(8).Fingerprint()
	if !okA || !okB {
		t.Fatal("plain request not fingerprintable")
	}
	if a != b {
		t.Error("Workers changed the fingerprint")
	}

	mod := smallRequest(2)
	mod.Config.StartupSec += 1
	if m, _ := mod.Fingerprint(); m == a {
		t.Error("player config change did not change the fingerprint")
	}

	keyed := smallRequest(2)
	keyed.Schemes[0].Key = "variant-b"
	if k, _ := keyed.Fingerprint(); k == a {
		t.Error("scheme Key did not change the fingerprint")
	}
}

func TestFingerprintRefusesUncacheable(t *testing.T) {
	req := smallRequest(2)
	req.PredictorFor = func(v *video.Video, tr *trace.Trace) player.Config {
		return player.DefaultConfig()
	}
	if _, ok := req.Fingerprint(); ok {
		t.Error("PredictorFor request claimed to be fingerprintable")
	}
	req2 := smallRequest(2)
	req2.Config.SessionID = "custom"
	if _, ok := req2.Fingerprint(); ok {
		t.Error("SessionID request claimed to be fingerprintable")
	}
}

// TestRunCacheColdWarm proves the memoization contract: a second identical
// request is a hit, a warm result is deep-equal to the cold one, and a
// fresh process (simulated by a new Cache over the same directory) loads
// the sweep from disk without executing any session.
func TestRunCacheColdWarm(t *testing.T) {
	dir := t.TempDir()

	req := smallRequest(4)
	req.Cache = cache.New(cache.WithDir(dir))

	cold := mustRun(t, req)
	if s := req.Cache.Stats(cache.KindSim); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss", s)
	}
	warm := mustRun(t, req)
	if s := req.Cache.Stats(cache.KindSim); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("warm stats = %+v, want 1 miss 1 hit", s)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm in-memory result differs from cold result")
	}

	// New cache over the same dir = a later process: the disk layer must
	// reproduce the result exactly (JSON round trip) with zero sessions run.
	req2 := smallRequest(4)
	req2.Cache = cache.New(cache.WithDir(dir))
	disk := mustRun(t, req2)
	if s := req2.Cache.Stats(cache.KindSim); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("disk stats = %+v, want 1 hit 0 misses", s)
	}
	if !reflect.DeepEqual(cold, disk) {
		t.Fatal("disk-loaded result differs from cold result")
	}
}

// TestRunCacheDistinguishesSchemeKeys guards the parameter-sweep hazard: two
// requests identical except for a scheme Key must not share a memoized
// result.
func TestRunCacheDistinguishesSchemeKeys(t *testing.T) {
	c := cache.New()
	reqA := smallRequest(2)
	reqA.Cache = c
	reqA.Schemes = []abr.Scheme{{Name: "Fixed", Key: "level-0", New: abr.Fixed(0)}}
	reqB := smallRequest(2)
	reqB.Cache = c
	reqB.Schemes = []abr.Scheme{{Name: "Fixed", Key: "level-9", New: abr.Fixed(9)}}

	a := mustRun(t, reqA)
	b := mustRun(t, reqB)
	if s := c.Stats(cache.KindSim); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses (distinct keys must not share entries)", s)
	}
	vid := reqA.Videos[0].ID()
	if reflect.DeepEqual(a.Summaries("Fixed", vid), b.Summaries("Fixed", vid)) {
		t.Fatal("distinct configurations returned identical cached results")
	}
}
