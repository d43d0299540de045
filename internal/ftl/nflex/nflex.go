// Package nflex generalizes flexFTL to n-bit NAND (TLC, QLC) — a nand.Device
// with Geometry.Levels of 3 or 4 — the working form of the paper's Section 1
// claim that RPS "can be applicable for other NAND devices such as TLC NAND
// devices with a similar program scheme".
//
// The two-phase ordering becomes n-phase ordering (nPO): a block is filled
// with all its level-0 pages first (the fast phase), then all level-1
// pages, ..., then the finest level. The block pool manager keeps one
// active block per phase per chip, with FIFO queues feeding phases 1..n-1.
// Every non-final phase leaves one XOR parity page behind (the per-block
// parity scheme, once per phase), so a power cut during any refinement —
// which destroys all of the word line's earlier bits — is recoverable
// without per-write backups.
//
// The FTL mounts the same runtime the MLC kernels do (ftl.Base: mapping
// table, free pools and victim selection, the payload token codec, host
// read and trim, the whole-victim collector and the incremental
// background-GC loop); only the level choice, the n-phase ordering with its
// block life cycle, per-phase parity and the n-level recovery procedure are
// scheme-local. The scheme registers itself as "nflexTLC" (a 3-bit device
// with the default TLC timing) in the ftl registry.
package nflex

import (
	"errors"
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/parity"
	"flexftl/internal/sim"
)

// Params are the policy knobs (the n-level analogue of ftl.FlexParams).
type Params struct {
	UHigh, ULow   float64
	QuotaFraction float64 // of the device's total level-0 pages
}

// DefaultParams mirrors flexFTL's settings.
func DefaultParams() Params {
	return Params{UHigh: 0.8, ULow: 0.1, QuotaFraction: 0.05}
}

// Validate rejects inconsistent parameters.
func (p Params) Validate() error {
	if p.ULow < 0 || p.UHigh > 1 || p.ULow >= p.UHigh {
		return fmt.Errorf("nflex: need 0 <= ulow < uhigh <= 1, got %v/%v", p.ULow, p.UHigh)
	}
	if p.QuotaFraction <= 0 || p.QuotaFraction > 1 {
		return fmt.Errorf("nflex: quota fraction %v outside (0,1]", p.QuotaFraction)
	}
	return nil
}

func init() {
	ftl.Register(ftl.Spec{
		Name:   "nflexTLC",
		Rules:  "TLC-nPO",
		Backup: "phaseParity",
		Description: "n-phase flexFTL on a 3-bit device: nPO ordering, " +
			"per-phase parity backups, utilization-driven level choice",
		New: func(env ftl.BuildEnv) (ftl.FTL, error) {
			if env.Reliability != nil || env.Config.Reliability != nil {
				return nil, errors.New("nflexTLC: a reliability model was requested, but the 3-bit scheme mounts none yet " +
					"(no BER surface on its device, no scrub/refresh/retire responses in its FTL); " +
					"run it without the reliability model, or use an MLC scheme")
			}
			// The scheme is defined on the 3-bit evaluation device, not on
			// env.Geometry.
			dev, err := nand.NewDevice(nand.Config{
				Geometry: nand.TLCGeometry(), Timing: nand.TLCTiming(), Rules: core.RPS,
			})
			if err != nil {
				return nil, err
			}
			return New(dev, env.Config, Params{
				UHigh:         env.Flex.UHigh,
				ULow:          env.Flex.ULow,
				QuotaFraction: env.Flex.QuotaFraction,
			})
		},
	})
}

// parityRef locates a phase parity page.
type parityRef struct {
	backupBlk int // -1 when the phase has no live parity
	page      int // level-0 word line within the backup block
}

type backupState struct {
	cur     int
	pos     int
	live    []int32 // parity pages still needed, by in-chip backup block
	retired []int
}

// phaseCursor tracks the active block of one phase on one chip.
type phaseCursor struct {
	blk int // -1 when none
	pos int // next word line of this phase
}

type chipState struct {
	phases []phaseCursor  // [level]; level 0 is the fast phase
	queues []ftl.IntQueue // [level] FIFO of blocks awaiting that phase (levels 1..n-1 used)
	pbuf   []parity.Buffer
	backup backupState
	toggle int // rotation for the mid-utilization band
}

// FTL is the n-phase flexFTL: the n-phase policy over the shared FTL runtime.
type FTL struct {
	// Base is the runtime every scheme shares — device, mapper, pools, stats,
	// token codec, the collector and the background-GC loop. A named field on
	// purpose: embedding would promote ResetCounters, and ssd.Prefill would
	// then zero the prefill out of the stats the TLC goldens pin.
	Base    *ftl.Base
	params  Params
	chips   []chipState
	byLevel []int64 // host writes per program level (the n-level LSB/MSB split)
	q       int64
	q0      int64
	refs    []parityRef // parity location by flat block × parity phase (see ref)
	inBGC   bool
	// psp is the parity writes' spare scratch (Device.Program copies it).
	psp [ftl.SpareSize]byte

	// Blame counters (nil without a recorder) and the per-level reprogram
	// penalty Prog[l]-Prog[0], mirroring the MLC kernel's attribution. Base
	// keeps its own unexported; the registry hands both the same counters.
	ctrBlameGC        *obs.Counter
	ctrBlameBackup    *obs.Counter
	ctrBlameReprogram *obs.Counter
	reprogPenalty     []int64
}

var _ ftl.FTL = (*FTL)(nil)

// New builds an nflex FTL over the device.
func New(dev *nand.Device, cfg ftl.Config, params Params) (*FTL, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	base, err := ftl.NewBase(dev, cfg)
	if err != nil {
		return nil, err
	}
	g := dev.Geometry()
	levels := g.BitsPerCell()
	f := &FTL{
		Base:    base,
		params:  params,
		chips:   make([]chipState, g.Chips()),
		byLevel: make([]int64, levels),
		refs:    make([]parityRef, g.TotalBlocks()*(levels-1)),
	}
	for i := range f.refs {
		f.refs[i].backupBlk = -1
	}
	f.reprogPenalty = make([]int64, levels)
	t := dev.Timing()
	for l := range f.reprogPenalty {
		f.reprogPenalty[l] = int64(t.Prog(core.PageType(l)) - t.ProgLSB)
	}
	totalL0 := int64(g.TotalBlocks()) * int64(g.WordLinesPerBlock)
	f.q = int64(params.QuotaFraction * float64(totalL0))
	if f.q < 1 {
		f.q = 1
	}
	f.q0 = f.q
	// Every chip's per-level state is a window of one device-wide array.
	n, blocks := g.Chips()*levels, g.BlocksPerChip
	phases, queues := make([]phaseCursor, n), make([]ftl.IntQueue, n)
	pbuf, live := parity.NewSet(n, ftl.TokenSize), make([]int32, g.TotalBlocks())
	for i := range phases {
		phases[i] = phaseCursor{blk: -1}
	}
	for c := range f.chips {
		lo, hi := c*levels, (c+1)*levels
		f.chips[c] = chipState{phases: phases[lo:hi:hi], queues: queues[lo:hi:hi], pbuf: pbuf[lo:hi:hi],
			backup: backupState{cur: -1, live: live[c*blocks : (c+1)*blocks : (c+1)*blocks]}}
	}
	return f, nil
}

// SetVictimReference switches every pool between the indexed victim picker
// and the retained reference linear scan (A/B determinism tests).
func (f *FTL) SetVictimReference(on bool) { f.Base.SetVictimReference(on) }

// SetRecorder attaches an observability recorder to the runtime and its
// device, and wires this scheme's handles on the blame counters.
func (f *FTL) SetRecorder(r *obs.Recorder) {
	f.Base.SetRecorder(r)
	reg := r.Registry()
	f.ctrBlameGC = reg.Counter(obs.BlameCounterName(obs.CauseGC))
	f.ctrBlameBackup = reg.Counter(obs.BlameCounterName(obs.CauseBackup))
	f.ctrBlameReprogram = reg.Counter(obs.BlameCounterName(obs.CauseReprogram))
}

// WearSpread returns the device's wear imbalance (Max/Mean erase count).
func (f *FTL) WearSpread() float64 { return f.Base.WearSpread() }

// Name identifies the scheme.
func (f *FTL) Name() string {
	return fmt.Sprintf("nflexFTL(%d-level)", f.Base.Dev.Geometry().BitsPerCell())
}

// Device returns the NAND device.
func (f *FTL) Device() *nand.Device { return f.Base.Dev }

// Stats returns the counters.
func (f *FTL) Stats() ftl.Stats { return f.Base.Stats() }

// HostWritesByLevel returns the per-program-level split of host writes — the
// n-level refinement of the kernel's LSB/MSB counters.
func (f *FTL) HostWritesByLevel() []int64 {
	return append([]int64(nil), f.byLevel...)
}

// Quota returns the current level-0 budget q.
func (f *FTL) Quota() int64 { return f.q }

// ActivePhaseProgress returns how many word lines of the chip's active
// phase-level block are programmed.
func (f *FTL) ActivePhaseProgress(chip, level int) int {
	if f.chips[chip].phases[level].blk == -1 {
		return 0
	}
	return f.chips[chip].phases[level].pos
}

// LogicalPages returns the host-visible space.
func (f *FTL) LogicalPages() int64 { return f.Base.LogicalPages() }

// PageSize returns the data-page size in bytes.
func (f *FTL) PageSize() int { return f.Base.Dev.Geometry().PageSizeBytes }

// Chips returns the chip count.
func (f *FTL) Chips() int { return f.Base.Dev.Geometry().Chips() }

// MappingHash fingerprints the mapping state (ftl.Mapper.StateHash) so
// equivalence guards can pin it across refactors.
func (f *FTL) MappingHash() uint64 { return f.Base.MappingHash() }

// TotalFreeBlocks sums the free lists over all chips.
func (f *FTL) TotalFreeBlocks() int { return f.Base.TotalFreeBlocks() }

// Write services a host page write with the utilization-driven phase policy.
func (f *FTL) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	if err := f.Base.CheckSeq(); err != nil {
		return now, err
	}
	chip := f.Base.NextChip()
	gcStart := now
	now, err := f.foregroundGC(chip, now)
	if err != nil {
		return now, err
	}
	if now > gcStart {
		f.ctrBlameGC.Add(int64(now - gcStart))
	}
	level := f.chooseLevel(chip, util)
	done, err := f.programAt(chip, level, lpn, f.Base.Token(lpn), f.Base.Spare(lpn), now, false)
	if err != nil {
		return now, err
	}
	f.Base.St.HostWrites++
	return done, nil
}

// Read services a host page read.
func (f *FTL) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) { return f.Base.ReadLPN(lpn, now) }

// Trim invalidates a logical page.
func (f *FTL) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) { return f.Base.Trim(lpn, now) }

// chooseLevel picks the program phase for a host write: level 0 while a
// high-utilization burst has budget, the deepest feedable phase when the
// buffer is sleepy, and a rotation over all phases in between.
func (f *FTL) chooseLevel(chip int, util float64) int {
	cs := &f.chips[chip]
	levels := f.Base.Dev.Geometry().BitsPerCell()
	deepest := f.deepestAvailable(chip)
	if deepest == 0 {
		return 0 // nothing queued beyond phase 0 (footnote-1 corner case)
	}
	if f.fastBudget(chip) <= 0 {
		return deepest
	}
	switch {
	case util > f.params.UHigh:
		if f.q > 0 {
			return 0
		}
	case util < f.params.ULow:
		return deepest
	}
	// Rotate across all phases with work available.
	for i := 0; i < levels; i++ {
		cs.toggle = (cs.toggle + 1) % levels
		if cs.toggle == 0 || f.phaseAvailable(chip, cs.toggle) {
			return cs.toggle
		}
	}
	return 0
}

// phaseAvailable reports whether phase l (l >= 1) has an active block or a
// queued one.
func (f *FTL) phaseAvailable(chip, l int) bool {
	cs := &f.chips[chip]
	return cs.phases[l].blk != -1 || cs.queues[l].Len() > 0
}

// deepestAvailable returns the highest-index phase with work, or 0.
func (f *FTL) deepestAvailable(chip int) int {
	for l := f.Base.Dev.Geometry().BitsPerCell() - 1; l >= 1; l-- {
		if f.phaseAvailable(chip, l) {
			return l
		}
	}
	return 0
}

// fastBudget is the level-0 capacity available without eating into the
// budget's Spare level.
func (f *FTL) fastBudget(chip int) int {
	cs := &f.chips[chip]
	w := f.Base.Dev.Geometry().WordLinesPerBlock
	budget := 0
	if cs.phases[0].blk != -1 {
		budget += w - cs.phases[0].pos
	}
	return budget + max(f.Base.Pools[chip].FreeCount()-f.Base.Budget.Spare, 0)*w
}
