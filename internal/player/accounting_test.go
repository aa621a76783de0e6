package player_test

import (
	"fmt"
	"math"
	"testing"

	"cava/internal/player"
	"cava/internal/sim"
	"cava/internal/trace"
	"cava/internal/video"
)

// TestSessionAccountingInvariants checks the step core's physical
// invariants for every roster scheme under the VOD, live and shared-link
// frontends. Per chunk, the buffer is non-negative before and after the
// download, downloads start in non-decreasing order and no duration is
// negative. Per session, Σ chunk bits equals TotalBits and the stall
// accounting closes: TotalRebufferSec equals Σ chunk RebufferSec, or
// exceeds it on a shared link, where a stall between downloads counts for
// the session only (StepState.AddSessionStall).
func TestSessionAccountingInvariants(t *testing.T) {
	v := video.YouTubeVideo(video.Title{Name: "BBB", Genre: video.Animation})
	traces := []*trace.Trace{trace.GenLTE(0), trace.GenLTE(7), trace.GenFCC(2)}
	const sharedClients = 3
	for _, sc := range sim.SchemeAll() {
		t.Run(sc.Name, func(t *testing.T) {
			for _, tr := range traces {
				res, err := player.Simulate(v, tr, sc.New(v), player.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				checkAccounting(t, "vod "+tr.ID, v, res, true)

				live, err := player.SimulateLive(v, tr, sc.New(v), player.DefaultConfig(), player.LiveConfig{EncoderDelaySec: -1})
				if err != nil {
					t.Fatal(err)
				}
				checkAccounting(t, "live "+tr.ID, v, &live.Result, true)
			}

			clients := make([]player.SharedClient, sharedClients)
			for c := range clients {
				clients[c] = player.SharedClient{Video: v, Algo: sc.New(v), JoinDelaySec: float64(c) * 41}
			}
			results, err := player.SimulateShared(trace.GenLTE(3).Scale(sharedClients), clients)
			if err != nil {
				t.Fatal(err)
			}
			for c, res := range results {
				checkAccounting(t, fmt.Sprintf("shared client %d", c), v, res, false)
			}
		})
	}
}

// checkAccounting reports the first invariant res violates. closed demands
// TotalRebufferSec = Σ chunk RebufferSec; otherwise TotalRebufferSec may
// exceed the sum.
func checkAccounting(t *testing.T, name string, v *video.Video, res *player.Result, closed bool) {
	t.Helper()
	if len(res.Chunks) != v.NumChunks() {
		t.Errorf("%s: %d chunk records for %d chunks", name, len(res.Chunks), v.NumChunks())
		return
	}
	var bits, stallSec float64
	prevStartSec := math.Inf(-1)
	for i, c := range res.Chunks {
		switch {
		case c.Index != i:
			t.Errorf("%s: record %d has index %d", name, i, c.Index)
			return
		case c.BufferBefore < 0 || c.BufferAfter < 0:
			t.Errorf("%s: chunk %d buffer %v → %v s", name, i, c.BufferBefore, c.BufferAfter)
			return
		case c.StartTime < prevStartSec:
			t.Errorf("%s: chunk %d starts at %v s, before chunk %d at %v s", name, i, c.StartTime, i-1, prevStartSec)
			return
		case c.DownloadSec < 0 || c.RebufferSec < 0 || c.WaitSec < 0:
			t.Errorf("%s: chunk %d download %v s, stall %v s, wait %v s", name, i, c.DownloadSec, c.RebufferSec, c.WaitSec)
			return
		}
		prevStartSec = c.StartTime
		bits += c.SizeBits
		stallSec += c.RebufferSec
	}
	// TotalBits accumulates the same sizes in the same order.
	if bits != res.TotalBits {
		t.Errorf("%s: Σ chunk bits %v, TotalBits %v", name, bits, res.TotalBits)
	}
	tolSec := 1e-9 * math.Max(stallSec, res.TotalRebufferSec)
	if closed && math.Abs(res.TotalRebufferSec-stallSec) > tolSec {
		t.Errorf("%s: TotalRebufferSec %v, Σ chunk RebufferSec %v", name, res.TotalRebufferSec, stallSec)
	}
	if !closed && res.TotalRebufferSec < stallSec-tolSec {
		t.Errorf("%s: TotalRebufferSec %v below Σ chunk RebufferSec %v", name, res.TotalRebufferSec, stallSec)
	}
}
