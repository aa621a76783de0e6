package player

import (
	"testing"

	"cava/internal/telemetry"
	"cava/internal/trace"
)

func TestLiveAvailabilityGatesDownloads(t *testing.T) {
	v := testVideo()
	// A very fast link: the client is always edge-limited, so every chunk
	// waits for the encoder and downloads start no earlier than avail(i).
	tr := trace.Constant("fast", 100e6, 1200, 1)
	res, err := SimulateLive(v, tr, fixedAlgo(v, 0), DefaultConfig(), LiveConfig{EncoderDelaySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Chunks {
		if c.StartTime < float64(i)*v.ChunkDurSec-1e-9 {
			t.Fatalf("chunk %d started at %.2f, before it existed (%.2f)", i, c.StartTime, float64(i)*v.ChunkDurSec)
		}
	}
	if res.AvailabilityWaitSec <= 0 {
		t.Error("edge-limited client never waited for the encoder")
	}
	// Session duration ~ video duration (paced by the encoder).
	if res.SessionSec < v.Duration()-2*v.ChunkDurSec {
		t.Errorf("session %.1fs shorter than encoder pacing allows", res.SessionSec)
	}
}

func TestLiveBufferBoundedByEdge(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("fast", 100e6, 1200, 1)
	res, err := SimulateLive(v, tr, fixedAlgo(v, 0), DefaultConfig(), LiveConfig{EncoderDelaySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	// With startup 10 s and instant downloads, the client holds roughly
	// the startup worth of buffer and cannot accumulate more than the gap
	// to the live edge.
	for _, c := range res.Chunks[5:] {
		if c.BufferAfter > DefaultConfig().StartupSec+2*v.ChunkDurSec {
			t.Fatalf("chunk %d buffer %.1f exceeds live-edge bound", c.Index, c.BufferAfter)
		}
	}
}

func TestLiveLatencyAccounting(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("fast", 100e6, 1200, 1)
	res, err := SimulateLive(v, tr, fixedAlgo(v, 0), DefaultConfig(), LiveConfig{EncoderDelaySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Latency ≈ startup buffer depth on a fast link (the client joined at
	// the edge and pre-buffered StartupSec of content).
	if res.AvgLatencySec < 5 || res.AvgLatencySec > 25 {
		t.Errorf("average latency %.1fs implausible for a 10s startup", res.AvgLatencySec)
	}
	if res.MaxLatencySec < res.AvgLatencySec {
		t.Error("max latency below average")
	}
}

func TestLiveStallsRaiseLatency(t *testing.T) {
	v := testVideo()
	// A link that collapses mid-session: stalls must translate into
	// permanently higher latency.
	samples := make([]float64, 1200)
	for i := range samples {
		switch {
		case i < 200:
			samples[i] = 5e6
		case i < 260:
			samples[i] = 2e4 // heavy congestion
		default:
			samples[i] = 5e6
		}
	}
	tr := &trace.Trace{ID: "collapse", IntervalSec: 1, Samples: samples}
	res, err := SimulateLive(v, tr, fixedAlgo(v, 3), DefaultConfig(), LiveConfig{EncoderDelaySec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRebufferSec <= 0 {
		t.Skip("no stall induced; trace too gentle for this ladder")
	}
	if res.MaxLatencySec <= res.AvgLatencySec {
		t.Error("stall did not raise max latency above average")
	}
}

func TestLiveEncoderDelayDefault(t *testing.T) {
	v := testVideo()
	tr := trace.Constant("fast", 100e6, 1200, 1)
	res, err := SimulateLive(v, tr, fixedAlgo(v, 0), DefaultConfig(), LiveConfig{EncoderDelaySec: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Default encoder delay is one chunk duration: chunk 0 available at Δ.
	if res.Chunks[0].StartTime < v.ChunkDurSec-1e-9 {
		t.Errorf("chunk 0 started at %.2f; default encoder delay ignored", res.Chunks[0].StartTime)
	}
}

func TestLiveValidatesInputs(t *testing.T) {
	v := testVideo()
	if _, err := SimulateLive(v, &trace.Trace{IntervalSec: 0}, fixedAlgo(v, 0), DefaultConfig(), LiveConfig{}); err == nil {
		t.Error("bad trace accepted")
	}
}

func TestLiveHonorsRecorder(t *testing.T) {
	v := testVideo()
	ring := telemetry.NewRing(0)
	cfg := DefaultConfig()
	cfg.Recorder = ring
	res, err := SimulateLive(v, trace.Constant("fast", 100e6, 1200, 1), fixedAlgo(v, 0), cfg, LiveConfig{EncoderDelaySec: -1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[telemetry.Kind]int{}
	for _, ev := range ring.Events() {
		counts[ev.Kind]++
	}
	if counts[telemetry.KindDownload] != len(res.Chunks) || len(res.Chunks) != v.NumChunks() {
		t.Errorf("%d download events for %d chunks", counts[telemetry.KindDownload], len(res.Chunks))
	}
	if counts[telemetry.KindStartup] != 1 {
		t.Errorf("%d startup events, want 1", counts[telemetry.KindStartup])
	}
}
