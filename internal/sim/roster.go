package sim

import (
	"slices"
	"strings"

	"cava/internal/abr"
	"cava/internal/cache"
	"cava/internal/core"
	"cava/internal/quality"
	"cava/internal/video"
)

// The scheme roster: the paper's §6 comparison set (CAVA, MPC, RobustMPC,
// PANDA/CQ max-sum and max-min, BOLA-E peak/avg/seg, BBA-1, RBA), CAVA's
// p1/p12 ablation variants and auto-tuning extension, and the related-work
// baselines (PIA, FESTIVE, plain BOLA). This block is the one place a
// scheme is named and constructed. Each line gives the scheme's CLI name,
// its result label (the algorithm's own Name()) and its factory. The
// exported values carry the result label, so experiments name a scheme by
// identifier and a misspelling fails to compile. The command-line tools
// look schemes up by CLI name through Roster, and SchemeAll labels each
// scheme with its CLI name.
var (
	CAVA        = rostered("cava", "CAVA", core.Factory())
	CAVAP1      = rostered("cava-p1", "CAVA-p1", core.Variant("p1"))
	CAVAP12     = rostered("cava-p12", "CAVA-p12", core.Variant("p12"))
	CAVAAuto    = rostered("cava-auto", "CAVA-auto", core.AutoFactory())
	MPC         = rostered("mpc", "MPC", func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, false) })
	RobustMPC   = rostered("robustmpc", "RobustMPC", func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, true) })
	PANDAMaxSum = rostered("panda-max-sum", "PANDA/CQ max-sum", panda(abr.MaxSum))
	PANDAMaxMin = rostered("panda-max-min", "PANDA/CQ max-min", panda(abr.MaxMin))
	BOLAEPeak   = rostered("bolae-peak", "BOLA-E (peak)", bola(abr.BOLAPeak, true))
	BOLAEAvg    = rostered("bolae-avg", "BOLA-E (avg)", bola(abr.BOLAAvg, true))
	BOLAESeg    = rostered("bolae-seg", "BOLA-E (seg)", bola(abr.BOLASeg, true))
	BOLAAvg     = rostered("bola-avg", "BOLA (avg)", bola(abr.BOLAAvg, false))
	BBA1        = rostered("bba1", "BBA-1", func(v *video.Video) abr.Algorithm { return abr.NewBBA1(v, 0, 0) })
	RBA         = rostered("rba", "RBA", func(v *video.Video) abr.Algorithm { return abr.NewRBA(v, 4) })
	PIA         = rostered("pia", "PIA", func(v *video.Video) abr.Algorithm { return abr.NewPIA(v) })
	FESTIVE     = rostered("festive", "FESTIVE", func(v *video.Video) abr.Algorithm { return abr.NewFESTIVE(v) })
)

// A RosterEntry is one roster scheme: its CLI name, and the scheme labelled
// with its algorithm's own name.
type RosterEntry struct {
	CLI string
	abr.Scheme
}

// roster holds the entries in declaration order; Roster sorts a copy.
var roster []RosterEntry

// rostered records one roster line and returns its labelled scheme.
func rostered(cli, label string, f abr.Factory) abr.Scheme {
	sc := abr.Scheme{Name: label, New: f}
	roster = append(roster, RosterEntry{CLI: cli, Scheme: sc})
	return sc
}

// panda builds PANDA/CQ, which consumes per-chunk quality values. It
// receives the PSNR surface (the quality metadata a 2014-era pipeline would
// carry), while evaluation uses VMAF (§6.1); see DESIGN.md's substitution
// notes. The table depends only on the video, so all sessions share one
// per video instead of rebuilding it per session.
func panda(mode abr.PANDAMode) abr.Factory {
	return func(v *video.Video) abr.Algorithm {
		return abr.NewPANDACQ(v, cache.Shared.QualityTable(v, quality.PSNR), mode)
	}
}

func bola(variant abr.BOLAVariant, enhanced bool) abr.Factory {
	return func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, variant, enhanced) }
}

// Roster returns every roster entry, in CLI-name order.
func Roster() []RosterEntry {
	out := slices.Clone(roster)
	slices.SortFunc(out, func(a, b RosterEntry) int { return strings.Compare(a.CLI, b.CLI) })
	return out
}

// SchemeAll returns every roster scheme labelled with its CLI name, in
// CLI-name order: the complete comparison set. The fleet engine's
// equivalence test pins player.Simulate against a one-session fleet for
// each of these.
func SchemeAll() []abr.Scheme {
	entries := Roster()
	out := make([]abr.Scheme, len(entries))
	for i, e := range entries {
		out[i] = abr.Scheme{Name: e.CLI, New: e.New}
	}
	return out
}
