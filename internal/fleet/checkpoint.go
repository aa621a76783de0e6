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

// Checkpoint format. A checkpoint is the set of sessions finished at the
// cut. Sessions are mutually independent and every session's trajectory is
// a pure function of the Config (seeded assignment + deterministic chunk
// steps), so a session that has not finished is simply restarted at its
// seeded arrival by Resume, and the snapshot serializes no algorithm,
// predictor or player state at all. Per session it records:
//
//   - pending sessions (not finished at the cut, started or not): nothing;
//   - done sessions: the event count and the session's nine distribution
//     samples by bit pattern;
//   - quarantined sessions: the recorded Quarantine (its Chunk is also the
//     session's event count), so lost-event accounting survives.
//
// A finished session's record never changes once its shard has published
// it (session.done, or the quarantine list under the shard's qmu), so any
// set of finished sessions is a valid cut and the writer runs while the
// shards keep draining.
//
// The file is little-endian binary: an 8-byte magic, the config
// fingerprint, the session count, one tagged record per session, and a
// trailing FNV-64a checksum over everything before it. Writes go to a
// temp file in the target directory and rename into place, so a torn
// write can never be mistaken for a checkpoint; a flipped bit fails the
// checksum and the resume.
//
// Telemetry is process-local and is not restored: counters on a resumed
// engine cover post-resume work only, and the fleet_sessions_active gauge
// rises again as restarted sessions take their first event.

// CheckpointFile is the checkpoint's file name inside the checkpoint
// directory.
const CheckpointFile = "fleet.ckpt"

// CheckpointPath returns the checkpoint file path for a checkpoint
// directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointFile) }

// ckptMagic identifies the format; bump the trailing digit on any layout
// change so stale files are rejected up front.
const ckptMagic = "cavaflt2"

// Per-session record tags.
const (
	ckptPending     = 0 // no fields
	ckptDone        = 1 // eventsDone u64, 9 sample bit patterns
	ckptQuarantined = 2 // chunk u64, reason str, stack str
)

// configFingerprint digests every Config field that determines a session's
// trajectory: the corpus content, the scheme identity, the seed and
// arrival process, truncation and the player constants. Workers is
// deliberately excluded — a checkpoint may be resumed at any worker count,
// exactly as a fresh run may use any — as are Cache/Metrics/CrashHook,
// which affect observation, not trajectories.
func configFingerprint(cfg Config) string {
	h := cache.NewHasher("fleet-ckpt-v2")
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

// writeCheckpoint snapshots the engine's finished sessions into dir
// atomically, and counts the outcome in fleet_checkpoints_written_total or
// fleet_checkpoint_errors_total. It reads only what the shards have
// published, so it may run while they drain. The write lands as a temp
// file first and renames over CheckpointFile, replacing any previous
// snapshot only once the new one is durably complete.
func (e *Engine) writeCheckpoint(dir string) (err error) {
	defer func() {
		if err != nil {
			e.mCkptErrors.Inc()
		} else {
			e.mCkptWritten.Inc()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: checkpoint dir: %w", err)
	}

	// Quarantine records by session id, copied under each shard's qmu. A
	// session quarantined after its shard's copy is written as pending.
	quarantines := make(map[int32]Quarantine)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.qmu.Lock()
		for _, q := range sh.quarantined {
			quarantines[q.SessionID] = q
		}
		sh.qmu.Unlock()
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
	fields := e.sampleFields()
	for id := range e.sessions {
		s := &e.sessions[id]
		if q, ok := quarantines[int32(id)]; ok {
			w.u8(ckptQuarantined)
			w.u64(uint64(q.Chunk))
			w.str(q.Reason)
			w.str(q.Stack)
		} else if s.done.Load() {
			w.u8(ckptDone)
			w.u64(uint64(s.chunks))
			for _, xs := range fields {
				w.u64(math.Float64bits(xs[id]))
			}
		} else {
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

// sampleNames names the sampleFields, as Result's distributions do.
var sampleNames = [9]string{
	"RebufferSec", "StartupDelaySec", "CompletionSec", "SessionLenSec",
	"AvgQuality", "QualityChange", "AvgLevel", "Switches", "DataMB",
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
// cfg at any worker count. Done and quarantined sessions are restored from
// their records; every other session restarts at its seeded arrival.
//
// A record must also hold values the run could have produced: a done
// session's event count equals its chunk budget, a quarantined session's
// chunk does not exceed it, and every sample is finite. A record that
// fails is refused with the session and the field it names, before the
// engine runs on it.
func Resume(cfg Config, dir string) (*Engine, error) {
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
			sh.schedule(int32(id), s.arrivalSec)

		case tag == ckptDone:
			eventsDone := r.u64()
			var bits [9]uint64
			for i := range bits {
				bits[i] = r.u64()
			}
			if r.err != nil {
				return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)
			}
			if budget := e.chunkBudget(int32(id)); eventsDone != uint64(budget) {
				return nil, fmt.Errorf("fleet: resume: session %d: done record holds %d events, want its chunk budget %d", id, eventsDone, budget)
			}
			for i, b := range bits {
				if x := math.Float64frombits(b); math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("fleet: resume: session %d: sample %s is %v, want a finite number", id, sampleNames[i], x)
				}
			}
			s.done.Store(true)
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
			chunk := r.u64()
			reason := r.str()
			stack := r.str()
			if r.err != nil {
				return nil, fmt.Errorf("fleet: resume: session %d: %w", id, r.err)
			}
			if budget := e.chunkBudget(int32(id)); chunk > uint64(budget) {
				return nil, fmt.Errorf("fleet: resume: session %d: quarantine record's chunk %d exceeds its chunk budget %d", id, chunk, budget)
			}
			sh.quarantined = append(sh.quarantined, Quarantine{
				SessionID: int32(id),
				Chunk:     int(chunk),
				Reason:    reason,
				Stack:     stack,
			})
			sh.events += int64(chunk)
			sh.lostEvents += int64(e.chunkBudget(int32(id))) - int64(chunk)

		default:
			return nil, fmt.Errorf("fleet: resume: session %d: unknown record tag %d", id, tag)
		}
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("fleet: resume: %d trailing bytes after last session record", len(r.data)-r.off)
	}
	return e, nil
}
