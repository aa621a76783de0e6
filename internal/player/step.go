package player

import (
	"cava/internal/abr"
	"cava/internal/bandwidth"
	"cava/internal/telemetry"
	"cava/internal/trace"
	"cava/internal/video"
)

// StepState is the reusable session core behind every execution frontend:
// the pure simulator (Simulate), the live-edge simulator (SimulateLive),
// the shared-link simulator (SimulateShared), the discrete-event fleet
// engine (internal/fleet) and the live DASH testbed client (internal/dash)
// all drive the same per-chunk state machine — one simulator, five
// frontends.
//
// The core is clock-agnostic: it never reads a clock. Virtual time only
// moves when a frontend applies a duration (drain/ElapseTo), so the same
// code runs under trace-integrated virtual time (Simulate, fleet) and
// measured wall time (the testbed client). It is also allocation-free in
// the steady state: with chunk-record retention off and a nil recorder,
// Advance performs no allocations per event, which is what lets the fleet
// engine hold hundreds of thousands of concurrent sessions in one process.
//
// The state is split hot from cold. The value holds everything a chunk
// step reads or writes — the player state, the in-progress record, the
// running totals and, unless Config.Predictor replaces it, the harmonic-mean
// predictor itself — so a step follows no per-session pointer but the
// algorithm. What only Take and tracing read (the Result's labels, chunk
// records and resilience totals, the recorder) sits behind one pointer
// that Init allocates only for sessions that keep chunk records or trace.
//
// A StepState is single-session, single-goroutine state. Zero value is not
// usable; call Init first.
type StepState struct {
	v       *video.Video
	algo    abr.Algorithm
	delayer abr.Delayer // nil when the scheme never pauses
	// pred is Config.Predictor; nil selects hm, the paper's default, held
	// by value. Dispatch is on pred == nil: pointing the interface at hm
	// would make a copied StepState read the original's history.
	pred bandwidth.Predictor
	hm   bandwidth.HarmonicMean
	cold *stepCold // nil unless the session keeps chunks or traces

	startupSec   float64
	maxBufferSec float64
	chunkDurSec  float64
	numTracks    int
	n            int

	// NowSec is the session-local virtual clock (seconds since session
	// start). BufferSec, Playing, PrevLevel and LastThroughputBps are the
	// player state the next decision sees; Chunk is the next chunk index.
	NowSec            float64
	BufferSec         float64
	Playing           bool
	PrevLevel         int
	LastThroughputBps float64
	Chunk             int

	// Rec is the record of the chunk currently in progress (or the last
	// one completed). Frontends that obtain download outcomes themselves
	// (the testbed client) fill its download fields before FinishDownload.
	Rec ChunkStep

	// The running session totals that Take copies into the Result.
	startupDelaySec float64
	rebufferSec     float64
	totalBits       float64
}

// stepCold is the part of a session that no chunk step reads: the Result's
// labels, chunk records and resilience totals, and the decision-trace
// recorder with its session identifier.
type stepCold struct {
	res        Result
	keepChunks bool
	trc        telemetry.Recorder
	session    string
	algoTraces bool
}

// Init prepares the core for one session of v under algo. Config zero
// values take the §6.1 defaults (startup 10 s, buffer cap 100 s, harmonic
// mean predictor). videoID and traceID label the Result and the default
// telemetry session identifier; keepChunks controls whether per-chunk
// records accumulate on the Result (fleet-scale runs disable it to keep
// the per-event path allocation-free). A session that neither keeps
// chunks nor has a Recorder stores no labels: its Take reports the totals
// only.
//
// Init does not validate v: callers that accept external input run
// v.Validate() (and trace validation) first, exactly as Simulate does.
func (s *StepState) Init(v *video.Video, videoID, traceID string, algo abr.Algorithm, cfg Config, keepChunks bool) {
	if cfg.StartupSec <= 0 {
		cfg.StartupSec = DefaultStartupSec
	}
	if cfg.MaxBufferSec <= 0 {
		cfg.MaxBufferSec = DefaultMaxBufferSec
	}
	if cfg.Predictor != nil {
		cfg.Predictor.Reset()
	}
	delayer, _ := algo.(abr.Delayer)

	*s = StepState{
		v:            v,
		algo:         algo,
		delayer:      delayer,
		pred:         cfg.Predictor,
		startupSec:   cfg.StartupSec,
		maxBufferSec: cfg.MaxBufferSec,
		chunkDurSec:  v.ChunkDurSec,
		numTracks:    v.NumTracks(),
		n:            v.NumChunks(),
		PrevLevel:    -1,
	}
	if !keepChunks && cfg.Recorder == nil {
		return
	}
	c := &stepCold{
		res:        Result{VideoID: videoID, TraceID: traceID, Scheme: algo.Name()},
		keepChunks: keepChunks,
	}
	s.cold = c

	// Decision tracing. When the algorithm records its own decide events
	// (abr.Traced, e.g. CAVA with controller internals), the core emits
	// only the step events around them; otherwise it records a plain decide
	// per chunk, so every session produces the same schema.
	if trc := cfg.Recorder; trc != nil {
		c.trc = trc
		c.session = cfg.SessionID
		if c.session == "" {
			c.session = telemetry.SessionID(videoID, traceID, algo.Name())
		}
		if t, ok := algo.(abr.Traced); ok {
			t.SetRecorder(trc, c.session)
			c.algoTraces = true
		}
	}
}

// LimitChunks truncates the session after n chunks (the testbed client's
// MaxChunks); non-positive or over-length values are ignored.
func (s *StepState) LimitChunks(n int) {
	if n > 0 && n < s.n {
		s.n = n
	}
}

// Done reports whether every chunk has been processed.
func (s *StepState) Done() bool { return s.Chunk >= s.n }

// Session returns the telemetry session identifier ("" when untraced).
func (s *StepState) Session() string {
	if s.cold == nil {
		return ""
	}
	return s.cold.session
}

// Totals returns the running totals Take reports: the startup delay, the
// session's stall seconds and the downloaded bits. Frontends that
// aggregate sessions without keeping their Results (the fleet) read them
// here.
func (s *StepState) Totals() (startupDelaySec, rebufferSec, totalBits float64) {
	return s.startupDelaySec, s.rebufferSec, s.totalBits
}

// SetNow moves the virtual clock without draining the buffer. Frontends
// running on a measured clock use it to sync the core to a fresh reading
// at points where the elapsed sliver carries no playback meaning.
func (s *StepState) SetNow(nowSec float64) { s.NowSec = nowSec }

// drainFor advances time by dt, draining the buffer when playing.
// Returns stall seconds incurred.
func (s *StepState) drainFor(dt float64) float64 {
	s.NowSec += dt
	if !s.Playing {
		return 0
	}
	if s.BufferSec >= dt {
		s.BufferSec -= dt
		return 0
	}
	stall := dt - s.BufferSec
	s.BufferSec = 0
	return stall
}

// ElapseTo advances the clock to the absolute virtual time nowSec,
// draining the buffer while playing, and returns the stall incurred
// (not yet accounted; see AddStall). A non-forward target only resets
// the clock, mirroring the testbed client's measured-time bookkeeping.
func (s *StepState) ElapseTo(nowSec float64) float64 {
	dt := nowSec - s.NowSec
	s.NowSec = nowSec
	if dt <= 0 || !s.Playing {
		return 0
	}
	if s.BufferSec >= dt {
		s.BufferSec -= dt
		return 0
	}
	stall := dt - s.BufferSec
	s.BufferSec = 0
	return stall
}

// AddStall accounts stall seconds to the current chunk and the session.
func (s *StepState) AddStall(stallSec float64) {
	s.rebufferSec += stallSec
	s.Rec.RebufferSec += stallSec
}

// AddSessionStall accounts stall seconds to the session total only, for
// stalls the current chunk record does not own (a shared-link client
// stalled between downloads).
func (s *StepState) AddSessionStall(stallSec float64) { s.rebufferSec += stallSec }

// NoteWait accounts idle seconds (scheme pause or full buffer) to the
// current chunk.
func (s *StepState) NoteWait(waitSec float64) { s.Rec.WaitSec += waitSec }

// BeginChunk starts the current chunk: it resets the chunk record and
// returns the decision state as of now.
func (s *StepState) BeginChunk() abr.State { return s.beginChunk(0) }

// beginChunk is BeginChunk behind an availability gate: the chunk cannot be
// requested before notBeforeSec (a live encoder has not produced it yet).
// The gate wait counts as chunk wait and, when playing, as stall; the
// decision state is read after it. A gate at or before now is a no-op.
func (s *StepState) beginChunk(notBeforeSec float64) abr.State {
	s.Rec = ChunkStep{Index: s.Chunk, BufferBefore: s.BufferSec}
	if wait := notBeforeSec - s.NowSec; wait > 0 {
		s.NoteWait(wait)
		s.AddStall(s.drainFor(wait))
	}
	return abr.State{
		ChunkIndex:        s.Chunk,
		Now:               s.NowSec,
		Buffer:            s.BufferSec,
		Playing:           s.Playing,
		PrevLevel:         s.PrevLevel,
		Est:               s.predict(),
		LastThroughputBps: s.LastThroughputBps,
	}
}

// predict returns the bandwidth estimate for a download starting now.
func (s *StepState) predict() float64 {
	if s.pred == nil {
		return s.hm.Predict(s.NowSec)
	}
	return s.pred.Predict(s.NowSec)
}

// tracer returns the cold block when the session records decision-trace
// events, nil otherwise.
func (s *StepState) tracer() *stepCold {
	if c := s.cold; c != nil && c.trc != nil {
		return c
	}
	return nil
}

// WantDelay returns the algorithm-requested pause before the current chunk
// (e.g. BOLA above its buffer ceiling), 0 when none.
func (s *StepState) WantDelay(st abr.State) float64 {
	if s.delayer == nil {
		return 0
	}
	if d := s.delayer.Delay(st); d > 0 {
		return d
	}
	return 0
}

// FullBufferWait returns how long the client must idle until the next
// chunk fits under the buffer cap, 0 when it already fits.
func (s *StepState) FullBufferWait() float64 {
	if s.Playing && s.BufferSec+s.chunkDurSec > s.maxBufferSec {
		return s.BufferSec + s.chunkDurSec - s.maxBufferSec
	}
	return 0
}

// Refresh re-reads the mutable decision inputs after any waiting and emits
// the wait trace event when the chunk accumulated idle time.
func (s *StepState) Refresh(st *abr.State) {
	st.Now, st.Buffer, st.Est = s.NowSec, s.BufferSec, s.predict()
	if c := s.tracer(); c != nil && s.Rec.WaitSec > 0 {
		c.trc.Record(telemetry.Event{
			Session: c.session, TimeSec: s.NowSec, Kind: telemetry.KindWait,
			Chunk: s.Chunk, Level: s.PrevLevel, PrevLevel: s.PrevLevel,
			BufferSec: s.BufferSec, WaitSec: s.Rec.WaitSec,
		})
	}
}

// Decide queries the algorithm, clamps the result with the shared
// abr.ClampLevel rule, and emits the plain decide event for algorithms
// that do not trace themselves.
func (s *StepState) Decide(st abr.State) int {
	level := st2level(s.algo, st, s.numTracks)
	if c := s.tracer(); c != nil && !c.algoTraces {
		c.trc.Record(telemetry.Event{
			Session: c.session, TimeSec: s.NowSec, Kind: telemetry.KindDecide,
			Chunk: s.Chunk, Level: level, PrevLevel: s.PrevLevel,
			BufferSec: s.BufferSec, EstBps: st.Est,
		})
	}
	return level
}

// FinishDownload applies a completed download whose outcome is already in
// Rec (level, size, timing): the buffer gains one chunk, the predictor
// observes the transfer, totals and the download trace event advance, and
// PrevLevel moves to the delivered level. estBps is the estimate the
// decision saw (st.Est), echoed into the trace event.
func (s *StepState) FinishDownload(estBps float64) {
	s.BufferSec += s.chunkDurSec
	s.Rec.BufferAfter = s.BufferSec

	if s.pred == nil {
		s.hm.ObserveDownload(s.Rec.SizeBits, s.Rec.DownloadSec)
	} else {
		s.pred.ObserveDownload(s.Rec.SizeBits, s.Rec.DownloadSec)
	}
	s.LastThroughputBps = s.Rec.ThroughputBps
	s.totalBits += s.Rec.SizeBits
	if c := s.cold; c != nil {
		if c.keepChunks {
			//lint:allow hotalloc guarded by keepChunks, false on the zero-alloc fleet path; only the single-session simulator keeps per-chunk records
			c.res.Chunks = append(c.res.Chunks, ChunkRecord{ChunkStep: s.Rec})
		}
		if c.trc != nil {
			// PrevLevel is the track of the *previous* chunk (-1 on the
			// first), so it must be recorded before PrevLevel advances to
			// this chunk's level.
			c.trc.Record(telemetry.Event{
				Session: c.session, TimeSec: s.NowSec, Kind: telemetry.KindDownload,
				Chunk: s.Chunk, Level: s.Rec.Level, PrevLevel: s.PrevLevel,
				BufferSec: s.BufferSec, EstBps: estBps,
				SizeBits: s.Rec.SizeBits, DownloadSec: s.Rec.DownloadSec, ThroughputBps: s.Rec.ThroughputBps,
				RebufferSec: s.Rec.RebufferSec, WaitSec: s.Rec.WaitSec,
			})
		}
	}
	s.PrevLevel = s.Rec.Level
}

// SkipChunk accounts a chunk that was never delivered (testbed client
// after exhausting retries): playback jumps the gap, experienced as one
// chunk duration of stall. PrevLevel, the predictor and the throughput
// history deliberately do not advance. Only a session that keeps chunk
// records or traces counts the skip on its Result.
func (s *StepState) SkipChunk() {
	s.rebufferSec += s.chunkDurSec
	s.Rec.RebufferSec += s.chunkDurSec
	s.Rec.BufferAfter = s.BufferSec
	if c := s.cold; c != nil {
		c.res.SkippedChunks++
		if c.keepChunks {
			//lint:allow hotalloc guarded by keepChunks, false on the zero-alloc fleet path; only the single-session simulator keeps per-chunk records
			c.res.Chunks = append(c.res.Chunks, ChunkRecord{ChunkStep: s.Rec, Skipped: true})
		}
	}
}

// MaybeStartup starts playback once the startup buffer is filled (or the
// last chunk arrived), stamping the startup delay with atSec and syncing
// the clock to it. Reports whether playback started on this call.
func (s *StepState) MaybeStartup(atSec float64) bool {
	if s.Playing || (s.BufferSec < s.startupSec && s.Chunk != s.n-1) {
		return false
	}
	s.Playing = true
	s.startupDelaySec = atSec
	s.NowSec = atSec
	if c := s.tracer(); c != nil {
		c.trc.Record(telemetry.Event{
			Session: c.session, TimeSec: atSec, Kind: telemetry.KindStartup,
			Chunk: s.Chunk, Level: s.Rec.Level, PrevLevel: s.PrevLevel, BufferSec: s.BufferSec,
		})
	}
	return true
}

// NextChunk advances to the next chunk index.
func (s *StepState) NextChunk() { s.Chunk++ }

// Advance runs one complete chunk step against a bandwidth trace: waits,
// decision, trace-integrated download, accounting. The trace is read at
// traceOffsetSec + session-local time, so fleet sessions can start at
// staggered positions of a shared trace (wrapping past its end). It
// returns the session-local virtual time at which the session next needs
// service — the wakeup the discrete-event engine schedules.
//
// Advance performs no allocations in the steady state when the session
// was initialized with keepChunks=false and a nil recorder.
func (s *StepState) Advance(tr *trace.Trace, traceOffsetSec float64) float64 {
	return s.advance(tr, traceOffsetSec, 0)
}

// advance is Advance with the chunk held until notBeforeSec (see
// beginChunk); 0 never holds, since the clock starts at 0.
func (s *StepState) advance(tr *trace.Trace, traceOffsetSec, notBeforeSec float64) float64 {
	st := s.beginChunk(notBeforeSec)

	// Algorithm-requested pause (e.g. BOLA above its buffer ceiling).
	if d := s.WantDelay(st); d > 0 {
		s.NoteWait(d)
		s.AddStall(s.drainFor(d))
	}

	// Full buffer: wait until the next chunk fits.
	if wait := s.FullBufferWait(); wait > 0 {
		s.NoteWait(wait)
		s.drainFor(wait) // cannot stall: buffer is at its maximum
	}

	s.Refresh(&st)
	level := s.Decide(st)
	size := s.v.ChunkSize(level, s.Chunk)
	dl := tr.DownloadTime(traceOffsetSec+s.NowSec, size)

	s.Rec.Level = level
	s.Rec.SizeBits = size
	s.Rec.StartTime = s.NowSec
	s.Rec.DownloadSec = dl
	if dl > 0 {
		s.Rec.ThroughputBps = size / dl
	}

	s.AddStall(s.drainFor(dl))
	s.FinishDownload(st.Est)
	s.MaybeStartup(s.NowSec)
	s.NextChunk()
	return s.NowSec
}

// Take finalizes and returns the session Result: the labels and chunk
// records Init kept, with the running totals copied in. The StepState must
// not be advanced afterwards.
func (s *StepState) Take() *Result {
	var res *Result
	if s.cold != nil {
		res = &s.cold.res
	} else {
		res = new(Result)
	}
	res.StartupDelaySec = s.startupDelaySec
	res.TotalRebufferSec = s.rebufferSec
	res.TotalBits = s.totalBits
	res.SessionSec = s.NowSec
	return res
}
