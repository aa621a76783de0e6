package player

import (
	"cava/internal/abr"
	"cava/internal/trace"
	"cava/internal/video"
)

// Live streaming simulation (the paper's §8 future-work setting). In live
// ABR the encoder produces chunks in real time: chunk i only becomes
// available at its encode time, the client can never buffer past the live
// edge, and every stall permanently increases the end-to-end latency. The
// scheme sees chunk sizes only up to the live edge (pair with
// core.Live(k) to bound the algorithm's lookahead accordingly).

// LiveConfig extends Config with the live-edge parameters.
type LiveConfig struct {
	// EncoderDelaySec is the encode+packaging delay: chunk i becomes
	// downloadable at i·Δ + EncoderDelaySec (one chunk duration when
	// negative; 0 means the chunk is ready the instant its content ends).
	EncoderDelaySec float64
}

// LiveResult augments Result with latency accounting.
type LiveResult struct {
	Result
	// AvgLatencySec and MaxLatencySec track the playhead's lag behind the
	// live edge while playing (startup excluded).
	AvgLatencySec, MaxLatencySec float64
	// AvailabilityWaitSec is total time spent waiting for chunks that the
	// encoder had not produced yet (the client caught up to the edge).
	AvailabilityWaitSec float64
}

// SimulateLive runs one live streaming session. Wall time 0 is the moment
// chunk 0 becomes available; the client joins then.
//
// SimulateLive is a thin frontend over the StepState core: each chunk step
// is held at the live edge, and a latency observer reads the core after
// every step.
func SimulateLive(v *video.Video, tr *trace.Trace, algo abr.Algorithm, cfg Config, lcfg LiveConfig) (*LiveResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if lcfg.EncoderDelaySec < 0 {
		lcfg.EncoderDelaySec = v.ChunkDurSec
	}
	var s StepState
	s.Init(v, v.ID(), tr.ID, algo, cfg, true)

	res := &LiveResult{}
	var latSum, latN, latMax float64
	for !s.Done() {
		// Chunk i becomes downloadable when its content ends, at (i+1)Δ
		// relative to chunk 0's content end at 0, plus the encode delay.
		avail := float64(s.Chunk)*v.ChunkDurSec + lcfg.EncoderDelaySec
		if wait := avail - s.NowSec; wait > 0 {
			res.AvailabilityWaitSec += wait
		}
		s.advance(tr, 0, avail)

		// Latency is the playhead's lag behind the live edge: the content
		// time produced so far minus the content time played out.
		if s.Playing {
			played := s.NowSec - s.startupDelaySec - s.rebufferSec
			lat := s.NowSec + lcfg.EncoderDelaySec - played
			latSum += lat
			latN++
			if lat > latMax {
				latMax = lat
			}
		}
	}
	res.Result = *s.Take()
	if latN > 0 {
		res.AvgLatencySec = latSum / latN
	}
	res.MaxLatencySec = latMax
	return res, nil
}
