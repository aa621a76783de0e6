package fleet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"cava/internal/cache"
)

// Checkpoint format. A checkpoint is a consistent cut of a quiescent
// engine: every shard is parked at a batch boundary (or drained), so no
// session is mid-step and per-session state is stable. Because sessions
// are mutually independent and every session's trajectory is a pure
// function of the Config (seeded assignment + deterministic chunk steps),
// the snapshot does not serialize opaque algorithm or predictor state at
// all. It records only per-session *progress*:
//
//   - pending sessions (first event not yet fired): nothing — the arrival
//     is re-derived from the seed;
//   - in-flight sessions: the number of chunk events completed plus the
//     bit pattern of the pending wakeup time. Resume re-runs exactly that
//     many Advance calls against the same video/trace/offset, which
//     reconstructs the algorithm, predictor and player state bit-for-bit;
//     the stored wakeup doubles as a self-check that the replay really did
//     land where the original run was (any divergence fails the resume);
//   - done sessions: the event count and the session's nine distribution
//     samples by bit pattern — no replay needed;
//   - quarantined sessions: the recorded Quarantine plus the chunks they
//     completed before panicking, so lost-event accounting survives.
//
// The file is little-endian binary: an 8-byte magic, the config
// fingerprint, the session count, one tagged record per session, and a
// trailing FNV-64a checksum over everything before it. Writes go to a
// temp file in the target directory and rename into place, so a torn
// write can never be mistaken for a checkpoint; a flipped bit fails the
// checksum and the resume.
//
// Replay cost is bounded by the concurrent working set (sessions arrived
// but unfinished at the cut), not the fleet: a million-session run with
// 50k concurrent sessions replays 50k partial sessions and restores the
// rest from samples.
//
// Telemetry is process-local and is not restored: counters on a resumed
// engine cover post-resume work only, while the fleet_sessions_active
// gauge is re-raised for replayed in-flight sessions so it drains back to
// zero as they finish.

// CheckpointFile is the checkpoint's file name inside the checkpoint
// directory.
const CheckpointFile = "fleet.ckpt"

// CheckpointPath returns the checkpoint file path for a checkpoint
// directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointFile) }

// ckptMagic identifies the format; bump the trailing digit on any layout
// change so stale files are rejected up front.
const ckptMagic = "cavaflt1"

// Per-session record tags.
const (
	ckptPending     = 0 // no fields
	ckptInflight    = 1 // eventsDone u64, wakeBits u64
	ckptDone        = 2 // eventsDone u64, 9 sample bit patterns
	ckptQuarantined = 3 // chunksDone u64, chunk u64, reason str, stack str
)

// configFingerprint digests every Config field that determines a session's
// trajectory: the corpus content, the scheme identity, the seed and
// arrival process, truncation and the player constants. Workers is
// deliberately excluded — a checkpoint may be resumed at any worker count,
// exactly as a fresh run may use any — as are Cache/Metrics/Collect/
// CrashHook, which affect observation, not trajectories.
func configFingerprint(cfg Config) string {
	h := cache.NewHasher("fleet-ckpt-v1")
	h.I64(int64(len(cfg.Videos)))
	for _, v := range cfg.Videos {
		h.Str(cache.VideoFingerprint(v))
	}
	h.I64(int64(len(cfg.Traces)))
	for _, tr := range cfg.Traces {
		h.Str(cache.TraceFingerprint(tr))
	}
	h.Str(cfg.Scheme.Key).Str(cfg.Scheme.Name)
	h.I64(int64(cfg.Sessions)).I64(cfg.Seed)
	h.F64(cfg.ArrivalRatePerSec)
	off := int64(0)
	if cfg.RandomTraceOffsets {
		off = 1
	}
	h.I64(off).I64(int64(cfg.MaxChunks)).I64(int64(cfg.Metric))
	h.F64(cfg.Player.StartupSec).F64(cfg.Player.MaxBufferSec)
	return h.Sum()
}

// ckptWriter serializes little-endian fields while folding every byte into
// a running FNV-64a sum; the first write error sticks.
type ckptWriter struct {
	w   io.Writer
	sum hash.Hash64
	buf [8]byte
	err error
}

func newCkptWriter(w io.Writer) *ckptWriter {
	return &ckptWriter{w: w, sum: fnv.New64a()}
}

func (w *ckptWriter) raw(p []byte) {
	if w.err != nil {
		return
	}
	w.sum.Write(p)
	_, w.err = w.w.Write(p)
}

func (w *ckptWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.raw(w.buf[:8])
}

func (w *ckptWriter) u8(v uint8) {
	w.buf[0] = v
	w.raw(w.buf[:1])
}

func (w *ckptWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.raw([]byte(s))
}

// trailer appends the checksum (not folded into itself).
func (w *ckptWriter) trailer() {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], w.sum.Sum64())
	_, w.err = w.w.Write(w.buf[:8])
}

// ckptReader parses a checksum-verified checkpoint body.
type ckptReader struct {
	data []byte
	off  int
	err  error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("truncated record at byte %d", r.off)
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

func (r *ckptReader) u64() uint64 {
	p := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *ckptReader) u8() uint8 {
	p := r.take(1)
	if r.err != nil {
		return 0
	}
	return p[0]
}

func (r *ckptReader) str() string {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("string length %d overruns file at byte %d", n, r.off)
	}
	return string(r.take(int(n)))
}

// writeCheckpoint snapshots the engine into dir atomically. The engine
// must be quiescent: drained, or every shard parked at the control
// barrier (RunContext guarantees this). The write lands as a temp file
// first and renames over CheckpointFile, replacing any previous snapshot
// only once the new one is durably complete.
func (e *Engine) writeCheckpoint(dir string) (err error) {
	if e.cfg.Collect {
		return fmt.Errorf("fleet: checkpoint with Collect set (per-chunk records are not snapshotted)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: checkpoint dir: %w", err)
	}

	// Harvest the pending wakeup of every live session from the shard
	// queues (each alive session has exactly one scheduled event).
	wakeBits := make(map[int32]uint64)
	for i := range e.shards {
		e.shards[i].heap.each(func(ev event) { wakeBits[ev.id] = math.Float64bits(ev.wakeSec) })
	}
	// Quarantine records by session id, for the tagged records below.
	quarantines := make(map[int32]*Quarantine)
	for i := range e.shards {
		qs := e.shards[i].quarantined
		for j := range qs {
			quarantines[qs[j].SessionID] = &qs[j]
		}
	}

	f, err := os.CreateTemp(dir, CheckpointFile+".tmp*")
	if err != nil {
		return fmt.Errorf("fleet: checkpoint temp: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = f.Close()      // best-effort cleanup; the write error wins
			_ = os.Remove(tmp) // best-effort cleanup of the temp file
		}
	}()

	bw := bufio.NewWriterSize(f, 1<<16)
	w := newCkptWriter(bw)
	w.raw([]byte(ckptMagic))
	w.str(configFingerprint(e.cfg))
	w.u64(uint64(e.cfg.Sessions))
	for id := range e.sessions {
		s := &e.sessions[id]
		switch {
		case s.quarantined:
			q := quarantines[int32(id)]
			if q == nil {
				return fmt.Errorf("fleet: checkpoint: session %d quarantined without a record", id)
			}
			w.u8(ckptQuarantined)
			w.u64(uint64(s.chunks))
			w.u64(uint64(q.Chunk))
			w.str(q.Reason)
			w.str(q.Stack)
		case s.done:
			w.u8(ckptDone)
			w.u64(uint64(s.chunks))
			for _, xs := range e.sampleFields() {
				w.u64(math.Float64bits(xs[id]))
			}
		case s.started:
			bits, ok := wakeBits[int32(id)]
			if !ok {
				return fmt.Errorf("fleet: checkpoint: live session %d has no scheduled event", id)
			}
			w.u8(ckptInflight)
			w.u64(uint64(s.chunks))
			w.u64(bits)
		default:
			w.u8(ckptPending)
		}
	}
	w.trailer()
	if w.err != nil {
		return fmt.Errorf("fleet: checkpoint write: %w", w.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fleet: checkpoint flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("fleet: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fleet: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, CheckpointPath(dir)); err != nil {
		return fmt.Errorf("fleet: checkpoint rename: %w", err)
	}
	return nil
}

// sampleFields returns the nine id-indexed sample slices in their fixed
// serialization (and Result) order.
func (e *Engine) sampleFields() [9][]float64 {
	return [9][]float64{
		e.rebufferSec, e.startupSec, e.completionSec, e.sessionLenSec,
		e.avgQuality, e.qualityChange, e.avgLevel, e.switches, e.dataMB,
	}
}

// Resume builds an engine for cfg and restores it from the checkpoint in
// dir. The config must describe the same run that wrote the checkpoint
// (verified by fingerprint) except for Workers, which may differ: the
// restored run's final Result is bit-identical to an uninterrupted run of
// cfg at any worker count. In-flight sessions are reconstructed by
// deterministic replay of their completed chunks; a replay that does not
// land on the checkpointed wakeup bit-for-bit fails the resume rather
// than continuing a diverged run.
func Resume(cfg Config, dir string) (*Engine, error) {
	if cfg.Collect {
		return nil, fmt.Errorf("fleet: Resume with Collect set (checkpoints do not hold per-chunk records)")
	}
	data, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", err)
	}
	if len(data) < len(ckptMagic)+8 {
		return nil, fmt.Errorf("fleet: resume: checkpoint too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	sum := fnv.New64a()
	sum.Write(body)
	if got, want := sum.Sum64(), binary.LittleEndian.Uint64(tail); got != want {
		return nil, fmt.Errorf("fleet: resume: checksum mismatch (file %016x, computed %016x): checkpoint corrupt", want, got)
	}
	r := &ckptReader{data: body}
	if magic := string(r.take(len(ckptMagic))); r.err == nil && magic != ckptMagic {
		return nil, fmt.Errorf("fleet: resume: bad magic %q", magic)
	}
	if fp := r.str(); r.err == nil && fp != configFingerprint(cfg) {
		return nil, fmt.Errorf("fleet: resume: config fingerprint mismatch: checkpoint was written by a different run configuration")
	}
	if count := r.u64(); r.err == nil && count != uint64(cfg.Sessions) {
		return nil, fmt.Errorf("fleet: resume: checkpoint holds %d sessions, config wants %d", count, cfg.Sessions)
	}
	if r.err != nil {
		return nil, fmt.Errorf("fleet: resume: %w", r.err)
	}

	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// The shards were primed with every session's arrival; rebuild the
	// queues from the snapshot instead (pending arrivals re-enter below).
	for i := range e.shards {
		e.shards[i].heap.reset()
	}

	n := cfg.Sessions
	p := len(e.shards)
	shardIdx := 0
	hiID := int32(n * 1 / p)
	for id := 0; id < n; id++ {
		for int32(id) >= hiID {
			shardIdx++
			hiID = int32(n * (shardIdx + 1) / p)
		}
		sh := &e.shards[shardIdx]
		s := &e.sessions[id]
		switch tag := r.u8(); {
		case r.err != nil:
			return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)

		case tag == ckptPending:
			sh.heap.push(event{wakeSec: s.arrivalSec, id: int32(id)})

		case tag == ckptInflight:
			eventsDone := r.u64()
			storedBits := r.u64()
			if r.err != nil {
				return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)
			}
			budget := uint64(e.chunkBudget(int32(id)))
			if eventsDone == 0 || eventsDone >= budget {
				return nil, fmt.Errorf("fleet: resume: session %d: in-flight with %d of %d events done", id, eventsDone, budget)
			}
			if err := e.replaySession(sh, int32(id), int(eventsDone), storedBits); err != nil {
				return nil, err
			}

		case tag == ckptDone:
			eventsDone := r.u64()
			var bits [9]uint64
			for i := range bits {
				bits[i] = r.u64()
			}
			if r.err != nil {
				return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)
			}
			s.done = true
			s.chunks = int32(eventsDone)
			for i, xs := range e.sampleFields() {
				xs[id] = math.Float64frombits(bits[i])
			}
			if doneSec := e.completionSec[id]; doneSec > sh.maxDoneSec {
				sh.maxDoneSec = doneSec
			}
			sh.events += int64(eventsDone)
			sh.completed++

		case tag == ckptQuarantined:
			chunksDone := r.u64()
			chunk := r.u64()
			reason := r.str()
			stack := r.str()
			if r.err != nil {
				return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)
			}
			s.quarantined = true
			s.chunks = int32(chunksDone)
			sh.quarantined = append(sh.quarantined, Quarantine{
				SessionID: int32(id),
				Chunk:     int(chunk),
				Reason:    reason,
				Stack:     stack,
			})
			sh.events += int64(chunksDone)
			sh.lostEvents += int64(e.chunkBudget(int32(id))) - int64(chunksDone)

		default:
			return nil, fmt.Errorf("fleet: resume: session %d: unknown record tag %d", id, tag)
		}
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("fleet: resume: %d trailing bytes after last session record", len(r.data)-r.off)
	}
	return e, nil
}

// replaySession reconstructs one in-flight session by re-running its
// completed chunk steps. The step core is a deterministic function of
// (video, trace, offset, player config, scheme), so eventsDone Advance
// calls rebuild the algorithm, predictor and buffer state the original
// process held at the cut; the resulting pending wakeup must match the
// checkpointed bits exactly or the resume is refused.
func (e *Engine) replaySession(sh *shard, id int32, eventsDone int, storedBits uint64) error {
	s := &e.sessions[id]
	e.startSession(s)
	qt := e.qts[s.video]
	var wakeSec float64
	for k := 0; k < eventsDone; k++ {
		if s.step.Done() {
			return fmt.Errorf("fleet: resume: session %d finished after %d of %d replayed events: checkpoint does not match deterministic replay", id, k, eventsDone)
		}
		prevLevel := s.step.PrevLevel
		wakeSec = s.step.Advance(s.tr, s.offsetSec)
		observeChunk(s, qt, prevLevel)
	}
	if s.step.Done() {
		return fmt.Errorf("fleet: resume: session %d done after replaying %d events but checkpointed in-flight", id, eventsDone)
	}
	absWakeSec := s.arrivalSec + wakeSec
	if math.Float64bits(absWakeSec) != storedBits {
		return fmt.Errorf("fleet: resume: session %d: replayed wakeup %v does not match deterministic replay of the checkpointed run (stored bits %016x, got %016x)",
			id, absWakeSec, storedBits, math.Float64bits(absWakeSec))
	}
	sh.heap.push(event{wakeSec: absWakeSec, id: id})
	sh.events += int64(eventsDone)
	return nil
}
