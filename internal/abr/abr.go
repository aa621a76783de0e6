// Package abr defines the rate-adaptation interface shared by every scheme
// and implements the state-of-the-art baselines the CAVA paper compares
// against (§6.1): MPC and RobustMPC (model-predictive control), PANDA/CQ
// max-sum and max-min (consistent-quality dynamic programming), BOLA and
// BOLA-E with its peak/avg/seg declared-bitrate variants, BBA-1
// (buffer-based) and RBA (rate-based).
//
// Algorithms see exactly what a DASH/HLS client sees: the manifest (track
// ladder, declared bitrates, per-chunk sizes), the player buffer, and an
// application-level bandwidth estimate. Only PANDA/CQ additionally consumes
// per-chunk quality values, which the paper notes are not available in
// today's ABR protocols; it is included as a strong reference point.
package abr

import (
	"cava/internal/telemetry"
	"cava/internal/video"
)

// State is the player state visible to an adaptation decision. It contains
// only client-observable quantities.
type State struct {
	// ChunkIndex is the index of the chunk to select a track for.
	ChunkIndex int
	// Now is the current wall-clock time in seconds since session start.
	Now float64
	// Buffer is the seconds of video currently buffered.
	Buffer float64
	// Playing reports whether playback has started (startup phase over).
	Playing bool
	// PrevLevel is the track chosen for the previous chunk, or -1 before
	// the first chunk.
	PrevLevel int
	// Est is the predicted network bandwidth in bits/sec (0 if unknown).
	Est float64
	// LastThroughputBps is the measured throughput of the most recent chunk
	// download in bits/sec (0 before the first download).
	LastThroughputBps float64
}

// Algorithm selects a track for each chunk. Implementations are stateful
// per streaming session and must not be shared across concurrent sessions.
type Algorithm interface {
	// Name identifies the scheme (used in result tables).
	Name() string
	// Select returns the track level (0-based) for chunk st.ChunkIndex.
	Select(st State) int
}

// Delayer is an optional interface for schemes that deliberately pause
// before fetching the next chunk (e.g. BOLA when no action has positive
// utility). The player drains the returned delay from the buffer before
// asking for a decision again.
type Delayer interface {
	// Delay returns how many seconds to wait before downloading chunk
	// st.ChunkIndex, or 0 to proceed immediately.
	Delay(st State) float64
}

// Traced is an optional interface for schemes that emit their own decision
// trace events with controller internals (CAVA records the PID terms and
// per-track objective scores behind each choice). The player attaches the
// session's recorder before the first Select; for algorithms that do not
// implement Traced the player records a plain decide event itself, so every
// session yields exactly one decide event per chunk either way.
type Traced interface {
	// SetRecorder attaches the recorder and the session identifier used in
	// emitted events. A nil recorder disables tracing (the default).
	SetRecorder(rec telemetry.Recorder, session string)
}

// Factory builds a fresh per-session Algorithm instance for a video.
type Factory func(v *video.Video) Algorithm

// Scheme pairs a display name with a factory, for experiment sweeps.
// Name labels the scheme's results and must be unique within one sweep.
// Key, when non-empty, discriminates the factory's configuration for
// cache fingerprints: two schemes with the same Name but different
// parameters (e.g. a parameter sweep rebuilding "CAVA" with varying
// controller settings) must carry distinct Keys, or a memoized sweep
// result for one configuration would be returned for another. A factory
// closed over nothing but the scheme name may leave Key empty.
type Scheme struct {
	Name string
	Key  string
	New  Factory
}

// ClampLevel bounds a level into the video's valid track range. It is the
// single clamping rule shared by the simulator and the live DASH client, so
// the two execution paths cannot drift in how they defend against an
// out-of-range Select result.
func ClampLevel(l, numTracks int) int {
	if l < 0 {
		return 0
	}
	if l >= numTracks {
		return numTracks - 1
	}
	return l
}

// Fixed returns an Algorithm that always selects the same track level,
// useful as a floor/ceiling reference and in tests.
func Fixed(level int) Factory {
	return func(v *video.Video) Algorithm {
		return fixed{level: ClampLevel(level, v.NumTracks())}
	}
}

type fixed struct{ level int }

func (f fixed) Name() string     { return "Fixed" }
func (f fixed) Select(State) int { return f.level }
