package experiments

import (
	"errors"
	"fmt"
	"io"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/oracle"
	"flexftl/internal/par"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// This file is the reliability aging campaign (the sweep behind
// `flexbench -exp reliability`): write a data set onto a pre-worn device,
// then age it through retention epochs with idle windows in between, reading
// everything back each epoch. With the kernel's reliability responses off the
// device is read-only between epochs and retention eventually defeats the
// ECC budget; with scrubbing/refresh on, at-risk blocks are rewritten during
// the idle windows and the first uncorrectable read is deferred (or never
// happens). The host oracle (internal/oracle) judges every read: a detected
// loss (rel.ErrUncorrectable) is data for the report, a violation fails the
// run.

// AgingConfig parameterizes one aging campaign: what happens to the data
// after the cell's device is built, pre-worn and written.
type AgingConfig struct {
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
}

// DefaultAgingConfig returns the campaign the evaluation uses: twelve
// quarter-year retention epochs with a 20 s idle window after each.
func DefaultAgingConfig() AgingConfig {
	return AgingConfig{
		Epochs:        12,
		EpochGap:      rel.Year / 4,
		IdleWindow:    20 * sim.Second,
		WriteFraction: 0.5,
	}
}

// agingPreWear puts the campaign device near its retention knee.
const agingPreWear = 4500

// AgingCell returns the device a campaign ages: scheme on a two-chip device
// pre-worn to agingPreWear P/E cycles, with the BER model mounted at seed.
// responses mounts the kernel's reliability responses (scrub, refresh,
// retirement, parity rebuild); without them the device still models errors
// but the FTL never acts on them (the detect-only baseline).
func AgingCell(scheme string, responses bool, seed uint64) Cell {
	// Small enough that pre-wearing every block to thousands of cycles stays
	// cheap, big enough to hold a few thousand logical pages across two
	// channels.
	c := Setup{Geometry: nand.Geometry{
		Channels:          2,
		ChipsPerChannel:   1,
		BlocksPerChip:     32,
		WordLinesPerBlock: 32,
		PageSizeBytes:     2048,
		SpareBytes:        64,
	}}.Cell(scheme, workload.Profile{})
	rc := rel.DefaultConfig(seed)
	c.Env.Reliability = &rc
	if responses {
		c.Env.Config.Reliability = ftl.DefaultRelPolicy()
	}
	c.PreWear = agingPreWear
	return c
}

// AgingReport is the outcome of one aging campaign.
type AgingReport struct {
	Scheme    string
	Responses bool
	// FirstLossEpoch is the 1-based epoch of the first uncorrectable host
	// read; -1 if every read of every epoch was served.
	FirstLossEpoch int
	// LostReads counts the LPNs whose host reads failed uncorrectably across
	// all epochs (each is a detected loss, never a silent one).
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

// RunAging ages the cell's device through one campaign and returns its
// report. It errors on configuration problems and on any read the oracle
// calls a violation; uncorrectable reads are data for the report, not
// errors.
func RunAging(c Cell, cfg AgingConfig) (AgingReport, error) {
	if cfg.Epochs <= 0 || cfg.WriteFraction <= 0 || cfg.WriteFraction > 1 {
		return AgingReport{}, fmt.Errorf("experiments: bad aging config %+v", cfg)
	}
	h, err := c.Build()
	if err != nil {
		return AgingReport{}, err
	}
	k, ok := h.(*ftl.Kernel)
	if !ok {
		return AgingReport{}, fmt.Errorf("experiments: scheme %q is not an ftl.Kernel (the aging campaign needs its reliability responses)", c.Scheme)
	}
	rep := AgingReport{Scheme: c.Scheme, Responses: c.Env.Config.Reliability != nil, FirstLossEpoch: -1}
	n := int64(float64(h.LogicalPages()) * cfg.WriteFraction)
	orc := oracle.New(h.LogicalPages())
	now := sim.Time(0)
	for lpn := ftl.LPN(0); int64(lpn) < n; lpn++ {
		done, err := h.Write(lpn, now, 0.5)
		if err != nil {
			return rep, fmt.Errorf("experiments: aging write LPN %d: %w", lpn, err)
		}
		orc.Ack(lpn, k.Seq())
		now = done
	}

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		now += cfg.EpochGap
		if cfg.IdleWindow > 0 {
			h.Idle(now, now+cfg.IdleWindow)
			now += cfg.IdleWindow
		}
		for lpn := ftl.LPN(0); int64(lpn) < n; lpn++ {
			done, err := h.Read(lpn, now)
			switch err := orc.Check(lpn, k.Buf.Data, err); {
			case err == nil:
				now = done
			case errors.Is(err, rel.ErrUncorrectable): // a detected loss
				if rep.FirstLossEpoch < 0 {
					rep.FirstLossEpoch = epoch
				}
			default: // a violation, or a read that failed for another reason
				return rep, fmt.Errorf("experiments: aging read LPN %d: %w", lpn, err)
			}
		}
	}
	rep.LostReads = int64(orc.Losses())

	rc := k.Device().RelCounts()
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

// RenderAging prints the aging sweep as paired baseline/response rows.
func RenderAging(w io.Writer, reps []AgingReport) {
	cfg := DefaultAgingConfig()
	fmt.Fprintf(w, "Retention aging: %d P/E pre-wear, %d epochs x %.2f yr, %v idle/epoch\n",
		agingPreWear, cfg.Epochs, float64(cfg.EpochGap)/float64(rel.Year), cfg.IdleWindow)
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
		scheme, responses := schemes[i/2], i%2 == 1
		rep, err := RunAging(AgingCell(scheme, responses, seed), DefaultAgingConfig())
		if err != nil {
			return rep, fmt.Errorf("experiments: aging %s responses=%v: %w", scheme, responses, err)
		}
		return rep, nil
	})
}
