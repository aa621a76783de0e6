package cava_test

import (
	"testing"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/metrics"
	"cava/internal/player"
	"cava/internal/quality"
	"cava/internal/scene"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// TestEverySchemeOnEveryVideo streams every roster scheme, plus CAVA's live
// variant, over every dataset video (plus the 4x-capped encode) on LTE and
// FCC traces and checks session invariants end to end. This is the
// repository's broadest integration sweep: ~600 full sessions.
func TestEverySchemeOnEveryVideo(t *testing.T) {
	if testing.Short() {
		t.Skip("broad integration sweep")
	}
	videos := append(video.Dataset(), video.Cap4xED())
	traces := []*trace.Trace{trace.GenLTE(0), trace.GenFCC(0)}
	cfg := player.DefaultConfig()
	schemes := append(sim.SchemeAll(), abr.Scheme{Name: "cava-live5", New: core.Live(5)})
	for _, v := range videos {
		qt := quality.NewTable(v, quality.VMAFPhone)
		cats := scene.ClassifyDefault(v)
		for _, tr := range traces {
			for _, sc := range schemes {
				res, err := player.Simulate(v, tr, sc.New(v), cfg)
				if err != nil {
					t.Fatalf("%s / %s / %s: %v", v.ID(), tr.ID, sc.Name, err)
				}
				if len(res.Chunks) != v.NumChunks() {
					t.Fatalf("%s / %s / %s: %d chunks", v.ID(), tr.ID, sc.Name, len(res.Chunks))
				}
				s := metrics.Summarize(res, qt, cats)
				if s.AvgQuality <= 0 || s.AvgQuality > 100 {
					t.Fatalf("%s / %s / %s: avg quality %v", v.ID(), tr.ID, sc.Name, s.AvgQuality)
				}
				if s.DataMB <= 0 {
					t.Fatalf("%s / %s / %s: no data downloaded", v.ID(), tr.ID, sc.Name)
				}
				if s.RebufferSec < 0 || s.RebufferSec > 1200 {
					t.Fatalf("%s / %s / %s: rebuffering %v", v.ID(), tr.ID, sc.Name, s.RebufferSec)
				}
			}
		}
	}
}

// TestHeadlineOrdering verifies the paper's core claims hold on a modest
// sweep: among manifest-only schemes CAVA has the best Q4 quality, and it
// rebuffers far less than the optimization baselines while using no more
// data.
func TestHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace ordering sweep")
	}
	v := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	qt := quality.NewTable(v, quality.VMAFPhone)
	cats := scene.ClassifyDefault(v)
	cfg := player.DefaultConfig()

	agg := map[string][]metrics.Summary{}
	schemes := []abr.Scheme{sim.CAVA, sim.RobustMPC, sim.RBA, sim.BBA1}
	const n = 25
	for _, sc := range schemes {
		for i := 0; i < n; i++ {
			res := mustSimulate(t, v, trace.GenLTE(i), sc.New(v), cfg)
			agg[sc.Name] = append(agg[sc.Name], metrics.Summarize(res, qt, cats))
		}
	}
	mean := func(name string, f metrics.Field) float64 {
		return metrics.Mean(metrics.Collect(agg[name], f))
	}

	cavaQ4 := mean("CAVA", metrics.FieldQ4Quality)
	for _, base := range []string{"RobustMPC", "RBA", "BBA-1"} {
		if bq := mean(base, metrics.FieldQ4Quality); cavaQ4 <= bq {
			t.Errorf("CAVA Q4 %.1f not above %s's %.1f", cavaQ4, base, bq)
		}
	}
	if cr, rr := mean("CAVA", metrics.FieldRebuffer), mean("RobustMPC", metrics.FieldRebuffer); cr >= rr {
		t.Errorf("CAVA rebuffering %.1f not below RobustMPC's %.1f", cr, rr)
	}
	if cd, rd := mean("CAVA", metrics.FieldDataMB), mean("RobustMPC", metrics.FieldDataMB); cd > rd*1.05 {
		t.Errorf("CAVA data %.1f MB above RobustMPC's %.1f", cd, rd)
	}
	if cc, rc := mean("CAVA", metrics.FieldQualityChange), mean("RobustMPC", metrics.FieldQualityChange); cc >= rc {
		t.Errorf("CAVA quality change %.2f not below RobustMPC's %.2f", cc, rc)
	}
}

// mustSimulate runs a simulation, failing the test on error: integration
// fixtures are valid by construction, so an error is a harness bug.
func mustSimulate(tb testing.TB, v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg player.Config) *player.Result {
	tb.Helper()
	res, err := player.Simulate(v, tr, algo, cfg)
	if err != nil {
		tb.Fatalf("Simulate(%s, %s): %v", v.ID(), tr.ID, err)
	}
	return res
}
