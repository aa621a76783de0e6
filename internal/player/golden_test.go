package player_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/core"
	"cava/internal/player"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// Golden digests of the VOD, live and shared-link simulators. Each constant
// is an FNV-64a hash over the bit patterns of every Result/LiveResult field
// and every ChunkRecord field of one scheme's sessions, so any change to
// the step order, the float arithmetic, the accounting or a scheme's
// decisions moves it. The live and shared inputs mirror the liveext and
// multiclient experiments at 5 LTE traces.

// goldenLive pins liveext's four live schemes on ED (FFmpeg H.264) over
// LTE traces 0-4 with the default one-chunk encoder delay.
var goldenLive = map[string]uint64{
	"CAVA-live2":     0xdbfa284e26ca0ff6,
	"CAVA-live5":     0xe0c6b73e7e0e4965,
	"CAVA-live20":    0xb85f0ea9cbaace59,
	"RobustMPC-live": 0xcebd8e297f2fd274,
}

// goldenShared pins multiclient's five schemes: 3 clients joining 41 s
// apart on ED (YouTube) over LTE traces 0-4 scaled x3.
var goldenShared = map[string]uint64{
	"CAVA":      0xb69d6f10f32d9b0c,
	"RobustMPC": 0xef8ae93a044d45cd,
	"FESTIVE":   0xb1200d54b218c1ba,
	"BOLA-E":    0xeac0eee7371768e2,
	"RBA":       0x54b07d5e291f6fe6,
}

// goldenVOD pins plain VOD sessions of every sim.SchemeAll scheme on ED
// (FFmpeg H.264, 2 s chunks) and ED (YouTube H.264, 5 s chunks), each over
// LTE traces 0-2 and FCC traces 0-2, with the default player config.
var goldenVOD = map[string]uint64{
	"bba1":          0xe348fc9b28f3211d,
	"bola-avg":      0x18d11d5dd6a3301e,
	"bolae-avg":     0x53f05b2f01fd14f7,
	"bolae-peak":    0x3d5f0a731dd5113f,
	"bolae-seg":     0x99733232ebd1ccda,
	"cava":          0x50e823631bf5eaf8,
	"cava-auto":     0xc2f3df9f29d4e942,
	"cava-p1":       0x81bad03459267b9b,
	"cava-p12":      0xbf69c7c3cbd5a8de,
	"festive":       0xfc426d42e17046c1,
	"mpc":           0x2a8d3e0f6be3961b,
	"panda-max-min": 0xdbe8930679cc8246,
	"panda-max-sum": 0xc0532645a646a836,
	"pia":           0x423e677aad197fb4,
	"rba":           0xf5aa362513ce0325,
	"robustmpc":     0xf364135d65f3abd0,
}

const goldenTraces = 5

type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digest) f(x float64) { d.u(math.Float64bits(x)) }

func (d *digest) i(x int) { d.u(uint64(int64(x))) }

func (d *digest) b(x bool) {
	if x {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *digest) s(x string) {
	d.h.Write([]byte(x))
	d.h.Write([]byte{0})
}

func (d *digest) result(r *player.Result) {
	d.s(r.VideoID)
	d.s(r.TraceID)
	d.s(r.Scheme)
	d.i(len(r.Chunks))
	for _, c := range r.Chunks {
		d.i(c.Index)
		d.i(c.Level)
		d.f(c.SizeBits)
		d.f(c.StartTime)
		d.f(c.DownloadSec)
		d.f(c.ThroughputBps)
		d.f(c.BufferBefore)
		d.f(c.BufferAfter)
		d.f(c.RebufferSec)
		d.f(c.WaitSec)
		d.i(c.Retries)
		d.i(c.Truncations)
		d.i(c.Abandonments)
		d.f(c.WastedBits)
		d.b(c.Skipped)
	}
	d.f(r.StartupDelaySec)
	d.f(r.TotalRebufferSec)
	d.f(r.TotalBits)
	d.f(r.SessionSec)
	d.i(r.TotalRetries)
	d.i(r.TotalTruncations)
	d.i(r.TotalAbandonments)
	d.i(r.SkippedChunks)
	d.f(r.WastedBits)
}

func checkGolden(t *testing.T, name string, want, got uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest %#016x, want %#016x", name, got, want)
	}
}

func TestGoldenVODDigest(t *testing.T) { checkGoldenVOD(t, player.DefaultConfig) }

// TestGoldenVODPredictorInterface runs the goldenVOD sessions with an
// explicit Config.Predictor, a fresh default-window harmonic mean per
// session. The step core then predicts through the bandwidth.Predictor
// interface instead of its inline default, and the two paths must agree
// bit for bit.
func TestGoldenVODPredictorInterface(t *testing.T) {
	checkGoldenVOD(t, func() player.Config {
		cfg := player.DefaultConfig()
		cfg.Predictor = bandwidth.NewHarmonicMean(bandwidth.DefaultWindow)
		return cfg
	})
}

// checkGoldenVOD hashes every roster scheme's goldenVOD sessions, each
// configured by a fresh cfg(), against the pinned digests.
func checkGoldenVOD(t *testing.T, cfg func() player.Config) {
	t.Helper()
	videos := []*video.Video{
		video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264),
		video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi}),
	}
	var traces []*trace.Trace
	for ti := 0; ti < 3; ti++ {
		traces = append(traces, trace.GenLTE(ti), trace.GenFCC(ti))
	}
	schemes := sim.SchemeAll()
	if len(schemes) != len(goldenVOD) {
		t.Fatalf("%d schemes, %d golden digests", len(schemes), len(goldenVOD))
	}
	for _, sc := range schemes {
		d := newDigest()
		for _, v := range videos {
			for _, tr := range traces {
				res, err := player.Simulate(v, tr, sc.New(v), cfg())
				if err != nil {
					t.Fatal(err)
				}
				d.result(res)
			}
		}
		checkGolden(t, sc.Name, goldenVOD[sc.Name], d.h.Sum64())
	}
}

func TestGoldenLiveDigest(t *testing.T) {
	v := video.FFmpegVideo(video.Title{Name: "ED", Genre: video.SciFi}, video.H264)
	cfg := player.DefaultConfig()
	live := func(la int, name string) func() abr.Algorithm {
		return func() abr.Algorithm {
			p := core.DefaultParams()
			p.Lookahead = la
			p.BaseTargetBuffer = cfg.StartupSec
			p.TargetMax = cfg.StartupSec + 2*v.ChunkDurSec
			return core.NewWith(v, p, core.AllPrinciples, name)
		}
	}
	schemes := map[string]func() abr.Algorithm{
		"CAVA-live2":     live(2, "CAVA-live2"),
		"CAVA-live5":     live(5, "CAVA-live5"),
		"CAVA-live20":    live(20, "CAVA-live20"),
		"RobustMPC-live": func() abr.Algorithm { return abr.NewMPC(v, true) },
	}
	for name, mk := range schemes {
		d := newDigest()
		for ti := 0; ti < goldenTraces; ti++ {
			res, err := player.SimulateLive(v, trace.GenLTE(ti), mk(), cfg, player.LiveConfig{EncoderDelaySec: -1})
			if err != nil {
				t.Fatal(err)
			}
			d.result(&res.Result)
			d.f(res.AvgLatencySec)
			d.f(res.MaxLatencySec)
			d.f(res.AvailabilityWaitSec)
		}
		checkGolden(t, name, goldenLive[name], d.h.Sum64())
	}
}

func TestGoldenSharedDigest(t *testing.T) {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	schemes := map[string]abr.Factory{
		"CAVA":      core.Factory(),
		"RobustMPC": func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, true) },
		"FESTIVE":   func(v *video.Video) abr.Algorithm { return abr.NewFESTIVE(v) },
		"BOLA-E":    func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, abr.BOLASeg, true) },
		"RBA":       func(v *video.Video) abr.Algorithm { return abr.NewRBA(v, 4) },
	}
	const clientsPerRun = 3
	for name, mk := range schemes {
		d := newDigest()
		for ti := 0; ti < goldenTraces; ti++ {
			clients := make([]player.SharedClient, clientsPerRun)
			for c := range clients {
				clients[c] = player.SharedClient{Video: v, Algo: mk(v), JoinDelaySec: float64(c) * 41}
			}
			results, err := player.SimulateShared(trace.GenLTE(ti).Scale(clientsPerRun), clients)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				d.result(res)
			}
		}
		checkGolden(t, name, goldenShared[name], d.h.Sum64())
	}
}
