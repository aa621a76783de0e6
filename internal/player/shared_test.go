package player

import (
	"math"
	"testing"

	"cava/internal/abr"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

func sharedClients(n int, level int) []SharedClient {
	v := video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})
	out := make([]SharedClient, n)
	for i := range out {
		out[i] = SharedClient{Video: v, Algo: abr.Fixed(level)(v)}
	}
	return out
}

func TestSharedSingleClientMatchesSolo(t *testing.T) {
	v := video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})
	tr := trace.Constant("c", 3e6, 2000, 1)
	solo, err := Simulate(v, tr, abr.Fixed(3)(v), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := SimulateShared(tr, []SharedClient{{Video: v, Algo: abr.Fixed(3)(v)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared[0].Chunks) != len(solo.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(shared[0].Chunks), len(solo.Chunks))
	}
	if math.Abs(shared[0].TotalBits-solo.TotalBits) > 1 {
		t.Error("data usage differs for a single shared client")
	}
	if math.Abs(shared[0].TotalRebufferSec-solo.TotalRebufferSec) > 1 {
		t.Errorf("rebuffering differs: shared %.2f vs solo %.2f",
			shared[0].TotalRebufferSec, solo.TotalRebufferSec)
	}
}

func TestSharedLinkSplitsCapacity(t *testing.T) {
	// Two always-downloading clients on a 2 Mbps link should each see
	// roughly 1 Mbps of throughput on substantial chunks.
	tr := trace.Constant("c", 2e6, 4000, 1)
	clients := sharedClients(2, 3)
	results, err := SimulateShared(tr, clients)
	if err != nil {
		t.Fatal(err)
	}
	for ci, res := range results {
		var bits, secs float64
		for _, c := range res.Chunks {
			if c.DownloadSec > 1 {
				bits += c.SizeBits
				secs += c.DownloadSec
			}
		}
		if secs == 0 {
			t.Fatalf("client %d had no substantial downloads", ci)
		}
		tput := bits / secs
		// At track 3 (~1.1 Mbps) both clients are nearly saturating; the
		// fair share is ~1 Mbps.
		if tput < 0.7e6 || tput > 2.0e6 {
			t.Errorf("client %d aggregate throughput %.2f Mbps, want ~1", ci, tput/1e6)
		}
	}
}

func TestSharedIdenticalClientsFair(t *testing.T) {
	tr := trace.GenLTE(1)
	clients := sharedClients(3, 2)
	results, err := SimulateShared(tr, clients)
	if err != nil {
		t.Fatal(err)
	}
	var rates []float64
	for _, res := range results {
		rates = append(rates, res.TotalBits)
	}
	if j := JainIndex(rates); j < 0.98 {
		t.Errorf("identical fixed clients got Jain index %.3f, want ~1", j)
	}
}

func TestSharedAdaptiveClientsComplete(t *testing.T) {
	v := video.YouTubeVideo(video.Title{Name: "ED", Genre: video.SciFi})
	tr := trace.GenLTE(2).Scale(2) // room for two adaptive clients
	clients := []SharedClient{
		{Video: v, Algo: abr.NewRBA(v, 4)},
		{Video: v, Algo: abr.NewBBA1(v, 0, 0)},
	}
	results, err := SimulateShared(tr, clients)
	if err != nil {
		t.Fatal(err)
	}
	for ci, res := range results {
		if len(res.Chunks) != v.NumChunks() {
			t.Fatalf("client %d finished %d chunks", ci, len(res.Chunks))
		}
		if res.TotalBits <= 0 || res.SessionSec <= 0 {
			t.Fatalf("client %d accounting broken: %+v", ci, res)
		}
	}
}

func TestSharedValidatesInputs(t *testing.T) {
	if _, err := SimulateShared(&trace.Trace{IntervalSec: 0}, sharedClients(1, 0)); err == nil {
		t.Error("bad trace accepted")
	}
	if _, err := SimulateShared(trace.Constant("c", 1e6, 10, 1), nil); err == nil {
		t.Error("no clients accepted")
	}
	bad := sharedClients(1, 0)
	brokenVideo := *bad[0].Video
	brokenVideo.Tracks = nil
	bad[0].Video = &brokenVideo
	if _, err := SimulateShared(trace.Constant("c", 1e6, 10, 1), bad); err == nil {
		t.Error("bad video accepted")
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares Jain = %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0}); math.Abs(j-1.0/3) > 1e-12 {
		t.Errorf("single-winner Jain = %v, want 1/3", j)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty Jain should be 0")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero Jain should be 1 (degenerate equality)")
	}
}

func TestSharedHonorsRecorder(t *testing.T) {
	ring := telemetry.NewRing(0)
	clients := sharedClients(3, 2)
	for i := range clients {
		clients[i].Config.Recorder = ring
		clients[i].JoinDelaySec = float64(i) * 41
	}
	results, err := SimulateShared(trace.GenLTE(1).Scale(3), clients)
	if err != nil {
		t.Fatal(err)
	}
	downloads := map[string]int{}
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.KindDownload {
			downloads[ev.Session]++
		}
	}
	if len(downloads) != len(clients) {
		t.Fatalf("download events carry %d session ids for %d clients: %v", len(downloads), len(clients), downloads)
	}
	for id, n := range downloads {
		if n != len(results[0].Chunks) {
			t.Errorf("session %q: %d download events, want %d", id, n, len(results[0].Chunks))
		}
	}
}
