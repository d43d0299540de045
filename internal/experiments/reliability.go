package experiments

import (
	"errors"
	"fmt"
	"io"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/par"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
)

// This file is the reliability aging campaign (the ISSUE-10 sweep behind
// `flexbench -exp reliability`): write a data set onto a pre-worn device,
// then age it through retention epochs with idle windows in between, reading
// everything back each epoch. With the kernel's reliability responses off the
// device is read-only between epochs and retention eventually defeats the
// ECC budget; with scrubbing/refresh on, at-risk blocks are rewritten during
// the idle windows and the first uncorrectable read is deferred (or never
// happens). The campaign's checker holds the crash-campaign invariant the
// whole way: a host read either returns the acknowledged payload or fails
// loudly with rel.ErrUncorrectable — a token mismatch without an error is
// silent corruption and fails the run.

// AgingConfig parameterizes one aging campaign run.
type AgingConfig struct {
	// Scheme is the registry FTL to age ("flexFTL", "pageFTL", ...).
	Scheme string
	// Seed feeds the device BER model's per-read hash.
	Seed uint64
	// PreWear is the erase-cycle count applied to every block before any
	// data is written, putting the device near its retention knee.
	PreWear int
	// Epochs is the number of retention epochs to age through.
	Epochs int
	// EpochGap is the virtual-time retention gap per epoch.
	EpochGap sim.Time
	// IdleWindow is the idle time offered to the FTL after each gap — the
	// budget scrubbing and refresh run on. Zero models a host that never
	// goes idle.
	IdleWindow sim.Time
	// WriteFraction of the logical space is written (and then verified every
	// epoch).
	WriteFraction float64
	// Responses mounts the kernel's reliability responses (scrub, refresh,
	// retirement, parity rebuild). False is the detect-only baseline: the
	// device still models errors but the FTL never acts on them.
	Responses bool
}

// DefaultAgingConfig returns the campaign configuration the evaluation uses:
// a device pre-worn to 4500 P/E cycles aged through twelve quarter-year
// retention epochs.
func DefaultAgingConfig(scheme string, responses bool) AgingConfig {
	return AgingConfig{
		Scheme:        scheme,
		Seed:          1,
		PreWear:       4500,
		Epochs:        12,
		EpochGap:      rel.Year / 4,
		IdleWindow:    20 * sim.Second,
		WriteFraction: 0.5,
		Responses:     responses,
	}
}

// AgingReport is the outcome of one aging campaign.
type AgingReport struct {
	Scheme    string
	Responses bool
	// FirstLossEpoch is the 1-based epoch of the first uncorrectable host
	// read; -1 if every read of every epoch was served.
	FirstLossEpoch int
	// LostReads counts host reads that failed uncorrectably across all
	// epochs (each is a detected loss, never a silent one).
	LostReads int64
	// Reads, Corrected and Retried are the device-side totals: how many
	// verification reads ran, how many needed ECC correction, and how many
	// entered the retry ladder.
	Reads     int64
	Corrected int64
	Retried   int64
	// ScrubReads / RefreshedBlocks / RetiredBlocks / Rebuilds are the
	// kernel's response totals (zero in the detect-only baseline).
	ScrubReads      int64
	RefreshedBlocks int64
	RetiredBlocks   int64
	Rebuilds        int64
}

// agingGeometry is the campaign device: small enough that pre-wearing every
// block to thousands of cycles stays cheap, big enough to hold a few
// thousand logical pages across two channels.
func agingGeometry() nand.Geometry {
	return nand.Geometry{
		Channels:          2,
		ChipsPerChannel:   1,
		BlocksPerChip:     32,
		WordLinesPerBlock: 32,
		PageSizeBytes:     2048,
		SpareBytes:        64,
	}
}

// RunAging executes one aging campaign and returns its report. It errors on
// configuration problems and on silent corruption (a verification read that
// returns the wrong payload without an error); uncorrectable reads are data
// for the report, not errors.
func RunAging(cfg AgingConfig) (AgingReport, error) {
	if cfg.Epochs <= 0 || cfg.WriteFraction <= 0 || cfg.WriteFraction > 1 {
		return AgingReport{}, fmt.Errorf("experiments: bad aging config %+v", cfg)
	}
	fcfg := ftl.DefaultConfig()
	if cfg.Responses {
		fcfg.Reliability = ftl.DefaultRelPolicy()
	}
	h, err := ftl.Build(cfg.Scheme, ftl.BuildEnv{
		Geometry:    agingGeometry(),
		Config:      fcfg,
		Flex:        ftl.DefaultFlexParams(),
		Reliability: relConfigPtr(rel.DefaultConfig(cfg.Seed)),
	})
	if err != nil {
		return AgingReport{}, err
	}
	k, ok := h.(*ftl.Kernel)
	if !ok {
		return AgingReport{}, fmt.Errorf("experiments: scheme %q is not an ftl.Kernel (the aging campaign needs its reliability responses)", cfg.Scheme)
	}
	dev := k.Device()

	// Pre-wear: cycle every block to the target P/E count. The blocks are
	// all free (nothing written yet), so this only moves wear counters.
	g := dev.Geometry()
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			a := nand.BlockAddr{Chip: chip, Block: blk}
			for i := 0; i < cfg.PreWear; i++ {
				if _, err := dev.Erase(a, 0); err != nil {
					return AgingReport{}, fmt.Errorf("experiments: pre-wear %v: %w", a, err)
				}
			}
		}
	}

	rep := AgingReport{Scheme: cfg.Scheme, Responses: cfg.Responses, FirstLossEpoch: -1}
	n := int64(float64(h.LogicalPages()) * cfg.WriteFraction)
	now := sim.Time(0)
	for lpn := int64(0); lpn < n; lpn++ {
		done, err := h.Write(ftl.LPN(lpn), now, 0.5)
		if err != nil {
			return rep, fmt.Errorf("experiments: aging write LPN %d: %w", lpn, err)
		}
		now = done
	}

	lost := make(map[int64]bool, 16)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		now += cfg.EpochGap
		if cfg.IdleWindow > 0 {
			h.Idle(now, now+cfg.IdleWindow)
			now += cfg.IdleWindow
		}
		for lpn := int64(0); lpn < n; lpn++ {
			done, err := h.Read(ftl.LPN(lpn), now)
			if err != nil {
				if !errors.Is(err, rel.ErrUncorrectable) {
					return rep, fmt.Errorf("experiments: aging read LPN %d: %w", lpn, err)
				}
				// Detected loss. Count it once per LPN for the loss total,
				// but every failed read must keep failing (sticky pin).
				if !lost[lpn] {
					lost[lpn] = true
					rep.LostReads++
				}
				if rep.FirstLossEpoch < 0 {
					rep.FirstLossEpoch = epoch
				}
				continue
			}
			if lost[lpn] {
				return rep, fmt.Errorf("experiments: LPN %d read clean after an uncorrectable loss (lost pages must stay lost)", lpn)
			}
			if got, ok := ftl.TokenLPN(k.Buf.Data); !ok || got != ftl.LPN(lpn) {
				return rep, fmt.Errorf("experiments: silent corruption: LPN %d read returned token for %d (ok=%v) without an error", lpn, got, ok)
			}
			now = done
		}
	}

	rc := dev.RelCounts()
	st := h.Stats()
	rep.Reads = rc.Reads
	rep.Corrected = rc.Corrected
	rep.Retried = rc.RetriedReads
	rep.ScrubReads = st.ScrubReads
	rep.RefreshedBlocks = st.RefreshedBlocks
	rep.RetiredBlocks = st.RetiredBlocks
	rep.Rebuilds = st.ECCRebuilds
	return rep, nil
}

// relConfigPtr copies c to the heap (BuildEnv wants a pointer so the default
// remains "no reliability model").
func relConfigPtr(c rel.Config) *rel.Config { return &c }

// RenderAging prints the aging sweep as paired baseline/response rows.
func RenderAging(w io.Writer, reps []AgingReport) {
	cfg := DefaultAgingConfig("", false)
	fmt.Fprintf(w, "Retention aging: %d P/E pre-wear, %d epochs x %.2f yr, %v idle/epoch\n",
		cfg.PreWear, cfg.Epochs, float64(cfg.EpochGap)/float64(rel.Year), cfg.IdleWindow)
	fmt.Fprintf(w, "  %-10s %-10s %10s %10s %9s %8s %9s %8s %8s\n",
		"scheme", "responses", "firstLoss", "lostReads", "retried", "scrubs", "refreshed", "retired", "rebuilt")
	for _, r := range reps {
		mode, loss := "off", "-"
		if r.Responses {
			mode = "on"
		}
		if r.FirstLossEpoch >= 0 {
			loss = fmt.Sprintf("epoch %d", r.FirstLossEpoch)
		} else {
			loss = "never"
		}
		fmt.Fprintf(w, "  %-10s %-10s %10s %10d %9d %8d %9d %8d %8d\n",
			r.Scheme, mode, loss, r.LostReads, r.Retried,
			r.ScrubReads, r.RefreshedBlocks, r.RetiredBlocks, r.Rebuilds)
	}
	fmt.Fprintln(w, "with responses off the device is read-only between epochs and retention")
	fmt.Fprintln(w, "walks every page over the ECC budget; idle-window refresh rewrites at-risk")
	fmt.Fprintln(w, "blocks first, deferring (here: eliminating) the first uncorrectable read.")
}

// AgingSweep runs the responses-on and responses-off campaigns for each
// scheme on at most workers goroutines (0 = all cores, 1 = serial) and
// returns the paired reports, responses-off first — the "refresh defers the
// first loss" comparison of the evaluation. Each campaign builds its own
// device, so the reports are identical for any worker count.
func AgingSweep(schemes []string, seed uint64, workers int) ([]AgingReport, error) {
	return par.Map(workers, 2*len(schemes), func(_, i int) (AgingReport, error) {
		cfg := DefaultAgingConfig(schemes[i/2], i%2 == 1)
		cfg.Seed = seed
		rep, err := RunAging(cfg)
		if err != nil {
			return rep, fmt.Errorf("experiments: aging %s responses=%v: %w", cfg.Scheme, cfg.Responses, err)
		}
		return rep, nil
	})
}
