package ftl

import "flexftl/internal/nand"

// This file expresses the paper's four MLC FTLs as kernel configurations —
// each scheme is nothing but a policy triple. The registry exposes them (plus
// hybrids) by name.

// FPSParityPairSize is how many LSB pages share one pre-backup parity page
// under FPS: at most two LSB pages can be pending before their paired MSB
// pages are programmed (the paper's footnote 4).
const FPSParityPairSize = 2

// RTFActiveBlocksPerChip is the active pool depth of the paper's rtfFTL
// configuration.
const RTFActiveBlocksPerChip = 8

// NewPageFTL builds the baseline FPS page-mapping FTL ("pageFTL"): strict
// vendor program order, no paired-page backup — the paper's performance
// ceiling for an FPS FTL under a no-sudden-power-off assumption. The device
// must enforce FPS (or a superset such as RPS).
func NewPageFTL(dev *nand.Device, cfg Config) (*Kernel, error) {
	return NewKernel(dev, cfg, KernelSpec{
		Name:   "pageFTL",
		Order:  FPSOrderPolicy(),
		Backup: NoBackupStrategy(),
		Alloc:  FixedAllocPolicy(PrefOrder, PrefOrder),
	})
}

// NewParityFTL builds "parityFTL", the FPS FTL with the adaptive paired-page
// pre-backup of Lee et al. (TCAD 2014), the Section 2 countermeasure: every
// FPSParityPairSize LSB programs emit one XOR parity page into a per-chip
// backup ring, covering the paired-page hazard before the MSBs arrive. This
// halves a naive copy-backup's overhead but still costs ~0.5 extra programs
// per word line — the gap flexFTL's per-block parity closes.
func NewParityFTL(dev *nand.Device, cfg Config) (*Kernel, error) {
	return NewKernel(dev, cfg, KernelSpec{
		Name:   "parityFTL",
		Order:  FPSOrderPolicy(),
		Backup: PairParityBackup(FPSParityPairSize),
		Alloc:  FixedAllocPolicy(PrefOrder, PrefOrder),
	})
}

// NewRTFFTL builds "rtfFTL", the return-to-fast FTL modeled on Grupp et al.'s
// Harey Tortoise (USENIX ATC 2013): a pool of RTFActiveBlocksPerChip active
// FPS blocks per chip keeps LSB pages available for bursts, idle time drains
// (or pads) pending MSB pages, and pair parity — the best an FPS FTL can do —
// covers the power-cut hazard. It still erases more than parityFTL because the
// aggressive drain spends pages, padding when no relocation source exists.
func NewRTFFTL(dev *nand.Device, cfg Config) (*Kernel, error) {
	return NewKernel(dev, cfg, KernelSpec{
		Name:   "rtfFTL",
		Order:  FPSPoolOrderPolicy(RTFActiveBlocksPerChip),
		Backup: PairParityBackup(FPSParityPairSize),
		Alloc:  FixedAllocPolicy(PrefFast, PrefSlow),
	})
}

// NewFlexFTL builds the paper's RPS-aware "flexFTL": two-phase ordering (each
// block is filled with LSB pages first, then with MSB pages — the RPSfull
// order of Figure 3(a)), per-block parity backup written once when the fast
// block fills (Section 3.3), and the adaptive u/q page allocation of Section
// 3.2; background GC copies valid pages into MSB pages during idle time,
// raising q. Reboot-time recovery and rebuild live in recover2po.go. The
// device must enforce RPS (or be unconstrained).
func NewFlexFTL(dev *nand.Device, cfg Config, p FlexParams) (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return NewKernel(dev, cfg, KernelSpec{
		Name:           "flexFTL",
		Order:          TwoPhaseOrderPolicy(),
		Backup:         BlockParityBackup(),
		Alloc:          AdaptiveAllocPolicy(p),
		RetokenizeGC:   true,
		Predictive:     p.PredictiveBGC,
		PredictorAlpha: p.PredictorAlpha,
	})
}

// NewFlexFTLPlaced builds flexFTL with a non-default placement policy —
// identical order/backup/alloc configuration, plus the fourth axis. The name
// is the registry key so crash repros and reports stay distinguishable.
func NewFlexFTLPlaced(dev *nand.Device, cfg Config, p FlexParams, name string, place PlacementPolicy) (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return NewKernel(dev, cfg, KernelSpec{
		Name:           name,
		Order:          TwoPhaseOrderPolicy(),
		Backup:         BlockParityBackup(),
		Alloc:          AdaptiveAllocPolicy(p),
		Place:          place,
		RetokenizeGC:   true,
		Predictive:     p.PredictiveBGC,
		PredictorAlpha: p.PredictorAlpha,
	})
}

// NewPageFTLPlaced builds pageFTL with a non-default placement policy: the
// same strict-order no-backup baseline, writing through per-chip streams.
func NewPageFTLPlaced(dev *nand.Device, cfg Config, name string, place PlacementPolicy) (*Kernel, error) {
	return NewKernel(dev, cfg, KernelSpec{
		Name:   name,
		Order:  FPSOrderPolicy(),
		Backup: NoBackupStrategy(),
		Alloc:  FixedAllocPolicy(PrefOrder, PrefOrder),
		Place:  place,
	})
}
