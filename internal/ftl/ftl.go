// Package ftl is the FTL kernel of the simulator: one engine (Kernel) that
// owns the write/read/trim/GC/idle paths and the block life cycle,
// parameterized by three sealed policy interfaces — OrderPolicy (page
// placement under a program-sequence rule set), BackupStrategy (paired-page
// power-cut protection) and AllocPolicy (LSB/MSB preference). The four MLC
// FTLs the repository evaluates (pageFTL, parityFTL, rtfFTL, flexFTL) are
// thin configurations of that kernel — see schemes.go and the registry. The
// kernel itself sits on the shared runtime, Base: the page-level mapping
// table with per-block valid accounting, chip selection, free-block pools
// and victim selection, the payload token codec, host read and trim, the
// whole-victim collector and the incremental background-GC loop. The fifth
// scheme, the n-level nflex in its subpackage, is not a Kernel configuration
// yet but mounts the same Base, so every scheme collects garbage through one
// collector.
package ftl

import (
	"fmt"

	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

// LPN is a logical page number in the host address space.
type LPN int64

// Stats aggregates the counters every FTL reports. All page counts are page
// programs unless stated otherwise.
type Stats struct {
	HostReads     int64 // host-issued page reads
	HostWrites    int64 // host-issued page writes
	HostTrims     int64 // host-issued page discards
	HostWritesLSB int64 // of which serviced with LSB pages
	HostWritesMSB int64 // of which serviced with MSB pages
	GCCopies      int64 // valid-page copies performed by garbage collection
	GCCopiesLSB   int64
	GCCopiesMSB   int64
	BackupWrites  int64 // parity or copy backup page programs
	PadWrites     int64 // dummy programs spending unwanted pages (rtfFTL's return-to-fast padding)
	Erases        int64 // block erases (the Figure 8(b) lifetime metric)
	RetiredBlocks int64 // blocks retired: erase budget exceeded, or post-erase BER over the retire line
	ForegroundGCs int64 // GC invocations that stalled a host write
	BackgroundGCs int64 // GC invocations during idle windows

	// Stream-split host-write counters, maintained only by multi-stream
	// placement policies (zero for single-stream schemes, so their stats
	// stay byte-identical to the pre-placement-axis kernel).
	HostWritesHot  int64 // host writes routed to the hot stream
	HostWritesCold int64 // host writes routed to the cold stream

	// Reliability-response counters, maintained only when Config.Reliability
	// is set (all zero otherwise, keeping disabled-path stats byte-identical).
	UncorrectableReads int64 // host/scrub reads lost after the full ECC ladder (no rebuild possible)
	ECCRebuilds        int64 // ECC-lost pages reconstructed from the per-block parity
	ScrubReads         int64 // idle-window patrol reads
	RefreshCopies      int64 // page programs caused by refresh/scrub relocations (subset of GCCopies)
	RefreshedBlocks    int64 // full blocks relocated because predicted BER crossed the refresh line
	GCReadLosses       int64 // GC relocations that carried a placeholder for unrepairable data
}

// TotalPrograms returns all page programs the FTL caused.
func (s Stats) TotalPrograms() int64 {
	return s.HostWrites + s.GCCopies + s.BackupWrites + s.PadWrites
}

// WriteAmplification returns total programs per host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.TotalPrograms()) / float64(s.HostWrites)
}

// Host is the FTL surface the runner drives, without the device: what a
// decorator between the runner and a scheme (bench/'s tracer) has to forward.
// Implementations are single-threaded over virtual time, like the device
// underneath them.
type Host interface {
	// Name identifies the scheme ("pageFTL", "flexFTL", "nflexFTL(3-level)",
	// ...).
	Name() string
	// Write services a host write of one logical page at virtual time now.
	// util is the current write-buffer utilization in [0,1] (flexFTL's
	// policy input; others ignore it). It returns the completion time of
	// the page program, including any foreground GC or backup work the
	// write triggered.
	Write(lpn LPN, now sim.Time, util float64) (sim.Time, error)
	// Read services a host read of one logical page, returning completion
	// time. Reading an unwritten LPN is an error.
	Read(lpn LPN, now sim.Time) (sim.Time, error)
	// Trim invalidates a logical page (host discard/delete). It is a
	// mapping-table operation with no flash I/O; trimming an unmapped LPN
	// is a harmless no-op.
	Trim(lpn LPN, now sim.Time) (sim.Time, error)
	// Idle offers the FTL a background window [now, until): it may run
	// background GC, stopping once the window is exhausted.
	Idle(now, until sim.Time)
	// Stats returns the counter snapshot.
	Stats() Stats
	// LogicalPages returns the size of the host-visible address space.
	LogicalPages() int64
	// PageSize returns the data-page size in bytes (bandwidth accounting).
	PageSize() int
}

// FTL is a flash translation layer bound to its NAND device — the Host
// surface plus access to the device itself (for erasure counts, geometry and
// fault injection). Every scheme in the registry, MLC or TLC, is one.
type FTL interface {
	Host
	// Device exposes the underlying NAND device.
	Device() *nand.Device
}

// Config carries the knobs shared by every FTL implementation.
type Config struct {
	// OPFraction is the over-provisioning fraction: the host-visible space
	// is (1-OPFraction) of raw capacity. Default 0.125.
	OPFraction float64
	// GCFreeFraction triggers background GC when the free-block fraction
	// drops below it. The paper uses 10%.
	GCFreeFraction float64
	// MinFreeBlocksPerChip (m, at least 1) is the base of every per-chip
	// free-block level the order policies work to: the chip budget
	// (Base.Budget) derives them all from m, the placement's stream count
	// and whether a backup writer exists.
	MinFreeBlocksPerChip int
	// GC selects the victim heuristic (default GCGreedy, the paper's
	// policy; GCCostBenefit for the ablation).
	GC GCPolicy
	// Reliability enables the kernel's responses to the device BER model —
	// idle-time scrubbing, refresh-before-retention-loss, high-wear block
	// retirement, and parity rebuild of ECC-lost reads. nil (the default)
	// disables all of them; the device must carry a rel.Config when set.
	Reliability *RelPolicy
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		OPFraction:           0.125,
		GCFreeFraction:       0.10,
		MinFreeBlocksPerChip: 2,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.OPFraction <= 0 || c.OPFraction >= 0.9 {
		return fmt.Errorf("ftl: over-provisioning fraction %v outside (0,0.9)", c.OPFraction)
	}
	if c.GCFreeFraction <= 0 || c.GCFreeFraction >= 1 {
		return fmt.Errorf("ftl: GC free fraction %v outside (0,1)", c.GCFreeFraction)
	}
	if c.MinFreeBlocksPerChip < 1 {
		return fmt.Errorf("ftl: MinFreeBlocksPerChip %d < 1", c.MinFreeBlocksPerChip)
	}
	if c.Reliability != nil {
		if err := c.Reliability.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LogicalPages computes the host-visible page count for a geometry under
// this config.
func (c Config) LogicalPages(g nand.Geometry) int64 {
	return int64(float64(g.TotalPages()) * (1 - c.OPFraction))
}
