// Package player simulates ABR streaming playback: a client that downloads
// chunks over a bandwidth trace under an adaptation algorithm, tracking
// buffer dynamics, startup latency, rebuffering, pauses and data usage.
//
// The simulation follows the paper's trace-driven replay methodology
// (§6.1): the application-level view of the network is the per-interval
// throughput series, and lower-layer effects (loss, RTT, signal strength)
// manifest only through that series.
package player

import (
	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// Config holds session parameters shared by all schemes for apples-to-apples
// comparison (§6.1).
type Config struct {
	// StartupSec is the playback startup latency: seconds of video that
	// must be buffered before playback begins (10 in the paper).
	StartupSec float64
	// MaxBufferSec is the client buffer cap; the client does not request
	// the next chunk while the buffer is full (100 in the paper).
	MaxBufferSec float64
	// Predictor estimates bandwidth for the ABR logic; nil selects the
	// paper's default, the harmonic mean of the past 5 chunks.
	Predictor bandwidth.Predictor
	// Recorder receives the session's decision-trace events (decide,
	// download, wait, startup) when non-nil. The nil default disables
	// tracing and adds no allocations to the chunk loop.
	Recorder telemetry.Recorder
	// SessionID overrides the trace event session identifier; empty uses
	// video|trace|scheme.
	SessionID string
}

// The paper's §6.1 session defaults, applied to zero Config values.
const (
	DefaultStartupSec   = 10
	DefaultMaxBufferSec = 100
)

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{StartupSec: DefaultStartupSec, MaxBufferSec: DefaultMaxBufferSec}
}

// ChunkStep is the part of a chunk's record that the step core rewrites on
// every chunk: the simulation fields. It is the in-progress record
// (StepState.Rec), so it carries nothing only the testbed client sets.
type ChunkStep struct {
	// Index is the chunk position in playback order.
	Index int
	// Level is the selected track.
	Level int
	// SizeBits is the downloaded size in bits.
	SizeBits float64
	// StartTime is when the download began (seconds since session start).
	StartTime float64
	// DownloadSec is how long the download took.
	DownloadSec float64
	// ThroughputBps is SizeBits/DownloadSec in bits/sec.
	ThroughputBps float64
	// BufferBefore and BufferAfter bracket the download (video seconds).
	BufferBefore, BufferAfter float64
	// RebufferSec is the stall time incurred while this chunk downloaded.
	RebufferSec float64
	// WaitSec is idle time before the download (full buffer or an
	// algorithm-requested pause).
	WaitSec float64
}

// ChunkRecord logs one chunk download: the simulation fields, promoted
// from ChunkStep (and flattened in JSON), then the live resilient
// client's per-chunk resilience counters, all zero in pure simulation.
type ChunkRecord struct {
	ChunkStep
	// Retries counts failed download attempts that were retried for this
	// chunk (live resilient client; always 0 in pure simulation).
	Retries int
	// Truncations counts attempts rejected because the body fell short of
	// the declared Content-Length.
	Truncations int
	// Abandonments counts mid-flight downloads given up for a lower track.
	Abandonments int
	// WastedBits is the abandoned partial-download volume (transited the
	// link, delivered no video).
	WastedBits float64
	// Skipped reports the chunk was never delivered: every attempt failed
	// and playback jumped the gap (accounted as RebufferSec).
	Skipped bool
}

// Result is a complete simulated session.
type Result struct {
	// VideoID, TraceID and Scheme identify the run.
	VideoID, TraceID, Scheme string
	// Chunks has one record per downloaded chunk, in playback order.
	Chunks []ChunkRecord
	// StartupDelaySec is when playback began (seconds since session start).
	StartupDelaySec float64
	// TotalRebufferSec is the total mid-playback stall time.
	TotalRebufferSec float64
	// TotalBits is the total data downloaded.
	TotalBits float64
	// SessionSec is the wall-clock time until the last chunk finished.
	SessionSec float64
	// TotalRetries, TotalTruncations, TotalAbandonments, SkippedChunks and
	// WastedBits aggregate the per-chunk resilience events (live resilient
	// client; all zero in pure simulation and in fail-fast mode).
	TotalRetries      int
	TotalTruncations  int
	TotalAbandonments int
	SkippedChunks     int
	WastedBits        float64
}

// Levels returns the per-chunk selected levels.
func (r *Result) Levels() []int {
	out := make([]int, len(r.Chunks))
	for i, c := range r.Chunks {
		out[i] = c.Level
	}
	return out
}

// Simulate runs one streaming session of video v over trace tr with the
// given adaptation algorithm. The algorithm instance must be fresh (it may
// carry per-session state).
//
// Simulate is a thin frontend over the shared StepState core: a one-session
// fleet (internal/fleet) driving the same core produces an identical Result.
func Simulate(v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg Config) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	var s StepState
	s.Init(v, v.ID(), tr.ID, algo, cfg, true)
	for !s.Done() {
		s.Advance(tr, 0)
	}
	return s.Take(), nil
}

// st2level queries the algorithm and clamps the result defensively, using
// the same abr.ClampLevel rule as the live DASH client.
func st2level(algo abr.Algorithm, st abr.State, numTracks int) int {
	return abr.ClampLevel(algo.Select(st), numTracks)
}
