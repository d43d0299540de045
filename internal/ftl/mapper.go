package ftl

import (
	"fmt"

	"flexftl/internal/nand"
)

// Mapper is the page-level mapping table: LPN -> PPN with the inverse map
// and per-block valid-page accounting garbage collection needs. It is
// geometry-agnostic — only block/page dimensions matter — so the same type
// serves the 2-bit MLC kernel and the n-level nflex FTL.
//
// Both tables store a page number plus one in an int32, so the zero value
// means unmapped (l2p) or free (p2l): a fresh mapper is one zeroed
// allocation that stays untouched until used, at most 8 bytes per physical
// page. Every page number of a device fits, by nand.MaxPages.
type Mapper struct {
	// lay is the device's page numbering: the page → (chip, block) step
	// every Update takes twice.
	lay        nand.Layout
	l2p        []int32 // logical to physical page number + 1; 0 when unmapped
	p2l        []int32 // physical to logical page number + 1; 0 when free/invalid
	validCount []int32 // valid pages per flat block
	mapped     int64   // currently mapped logical pages
	// pools, when set, is the GC victim index of each chip and full the
	// pools' flat full-list flags: a full block's validCount change goes to
	// its pool; any other block's costs one flag test.
	pools []*FreePool
	full  []bool
	// logging marks a shard-mode view: Update defers its mutation into log
	// instead of touching the shared tables (see logView).
	logging bool
	log     []mapLogEntry
}

// mapLogEntry records one deferred Update in a shard-mode mapper view.
type mapLogEntry struct {
	lpn LPN
	ppn nand.PPN
}

// logView returns a shard-mode view of the mapper: reads (Lookup, LPNAt,
// ValidCount, page scans) see the pre-epoch state through the shared tables,
// while Update appends to a private per-view log instead of mutating,
// returning the pre-epoch mapping of the LPN. The epoch barrier replays the
// logs on the real mapper in deterministic global order. The returned "old"
// PPN is exact only because epoch formation forbids two ops on the same LPN
// within an epoch.
func (m *Mapper) logView() *Mapper {
	v := *m
	v.logging = true
	v.log = nil
	v.pools, v.full = nil, nil
	return &v
}

// resetLog clears a view's deferred-update log for the next epoch, keeping
// its capacity.
func (m *Mapper) resetLog() { m.log = m.log[:0] }

// SetVictimIndex hands every later valid-count change of a chip's block to
// pools[chip] while full, the pools' flat flags, marks it (nil detaches).
func (m *Mapper) SetVictimIndex(pools []*FreePool, full []bool) { m.pools, m.full = pools, full }

// CheckCapacity returns a *nand.CapacityError when the geometry has more
// physical pages than a device — and so a Mapper — can address.
func CheckCapacity(g nand.Geometry) error { return nand.CheckCapacity(g) }

// NewMapper builds a mapper for logicalPages host pages over a device's page
// numbering.
func NewMapper(lay nand.Layout, logicalPages int64) *Mapper {
	totalPages := int64(lay.Pages())
	if logicalPages <= 0 || logicalPages > totalPages {
		panic(fmt.Sprintf("ftl: logical pages %d outside (0,%d]", logicalPages, totalPages))
	}
	tables := make([]int32, logicalPages+totalPages)
	return &Mapper{
		lay:        lay,
		l2p:        tables[:logicalPages:logicalPages],
		p2l:        tables[logicalPages:],
		validCount: make([]int32, lay.Blocks()),
	}
}

// LogicalPages returns the host-visible page count.
func (m *Mapper) LogicalPages() int64 { return int64(len(m.l2p)) }

// Mapped returns how many logical pages currently have a mapping.
func (m *Mapper) Mapped() int64 { return m.mapped }

// noteValid adds delta to the valid count of the block holding ppn and, when
// the block is a GC candidate, hands its new count to its chip's pool.
func (m *Mapper) noteValid(ppn nand.PPN, delta int32) {
	flat := m.lay.FlatBlock(ppn)
	v := m.validCount[flat] + delta
	m.validCount[flat] = v
	if uint(flat) < uint(len(m.full)) && m.full[flat] {
		a := m.lay.BlockOfFlat(flat)
		m.pools[a.Chip].rebucket(int32(a.Block), int(v))
	}
}

// FlatBlock returns the flat index of a block address.
func (m *Mapper) FlatBlock(a nand.BlockAddr) int { return m.lay.FlatOf(a) }

// BlockOfFlat inverts FlatBlock.
func (m *Mapper) BlockOfFlat(flat int) nand.BlockAddr { return m.lay.BlockOfFlat(flat) }

// Lookup returns the current physical page of an LPN.
func (m *Mapper) Lookup(lpn LPN) (nand.PPN, bool) {
	if lpn < 0 || int64(lpn) >= int64(len(m.l2p)) {
		return nand.InvalidPPN, false
	}
	v := m.l2p[lpn]
	return nand.PPN(v) - 1, v != 0
}

// Update maps lpn to newPPN, invalidating any previous mapping. It returns
// the superseded PPN (InvalidPPN if none).
func (m *Mapper) Update(lpn LPN, newPPN nand.PPN) nand.PPN {
	if lpn < 0 || int64(lpn) >= int64(len(m.l2p)) {
		panic(fmt.Sprintf("ftl: LPN %d out of range [0,%d)", lpn, len(m.l2p)))
	}
	if newPPN < 0 || int64(newPPN) >= int64(len(m.p2l)) {
		panic(fmt.Sprintf("ftl: PPN %d out of range", newPPN))
	}
	if held := m.p2l[newPPN]; held != 0 {
		panic(fmt.Sprintf("ftl: PPN %d already holds LPN %d", newPPN, held-1))
	}
	old := nand.PPN(m.l2p[lpn]) - 1
	if m.logging {
		// Shard mode: defer the mutation for the barrier replay. old is the
		// pre-epoch mapping, exact under the epoch's unique-LPN rule.
		m.log = append(m.log, mapLogEntry{lpn: lpn, ppn: newPPN})
		return old
	}
	if old != nand.InvalidPPN {
		m.p2l[old] = 0
		m.noteValid(old, -1)
	} else {
		m.mapped++
	}
	m.l2p[lpn] = int32(newPPN) + 1
	m.p2l[newPPN] = int32(lpn) + 1
	m.noteValid(newPPN, 1)
	return old
}

// Invalidate drops the mapping of lpn (host trim). It reports whether a
// mapping existed.
func (m *Mapper) Invalidate(lpn LPN) bool {
	if lpn < 0 || int64(lpn) >= int64(len(m.l2p)) {
		return false
	}
	old := nand.PPN(m.l2p[lpn]) - 1
	if old == nand.InvalidPPN {
		return false
	}
	m.l2p[lpn] = 0
	m.p2l[old] = 0
	m.mapped--
	m.noteValid(old, -1)
	return true
}

// LPNAt returns the logical page stored at a physical page, if the page is
// valid.
func (m *Mapper) LPNAt(ppn nand.PPN) (LPN, bool) {
	if ppn < 0 || int64(ppn) >= int64(len(m.p2l)) {
		return -1, false
	}
	v := m.p2l[ppn]
	return LPN(v) - 1, v != 0
}

// ValidCount returns the number of valid pages in a block.
func (m *Mapper) ValidCount(a nand.BlockAddr) int {
	return int(m.validCount[m.FlatBlock(a)])
}

// ValidPages lists the valid physical pages of a block in page-index order.
func (m *Mapper) ValidPages(a nand.BlockAddr) []nand.PPN {
	return m.AppendValidPages(a, nil)
}

// AppendValidPages appends the valid physical pages of a block, in
// page-index order, to dst and returns it — the allocation-free variant the
// GC and recovery hot paths use with a reusable scratch slice.
func (m *Mapper) AppendValidPages(a nand.BlockAddr, dst []nand.PPN) []nand.PPN {
	base, n := m.lay.PPN(a.Chip, a.Block, 0), m.lay.PagesPerBlock()
	for i := 0; i < n; i++ {
		ppn := base + nand.PPN(i)
		if m.p2l[ppn] != 0 {
			dst = append(dst, ppn)
		}
	}
	return dst
}

// FirstValidPage returns the lowest-index valid physical page of a block.
func (m *Mapper) FirstValidPage(a nand.BlockAddr) (nand.PPN, bool) {
	base, n := m.lay.PPN(a.Chip, a.Block, 0), m.lay.PagesPerBlock()
	for i := 0; i < n; i++ {
		ppn := base + nand.PPN(i)
		if m.p2l[ppn] != 0 {
			return ppn, true
		}
	}
	return nand.InvalidPPN, false
}

// StateHash returns an FNV-1a digest of the mapping state (every l2p entry
// followed by every per-block valid count) — the cheap fingerprint the
// equivalence guards compare across refactors instead of serializing whole
// tables.
func (m *Mapper) StateHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	for _, v := range m.l2p {
		mix(uint64(int64(v) - 1)) // the PPN as an int64, -1 when unmapped
	}
	for _, v := range m.validCount {
		mix(uint64(uint32(v)))
	}
	return h
}

// ClearBlock asserts a block holds no valid pages and is about to be erased.
// GC must have relocated everything first; anything else is a bug.
func (m *Mapper) ClearBlock(a nand.BlockAddr) {
	if n := m.ValidCount(a); n != 0 {
		panic(fmt.Sprintf("ftl: erasing block %v with %d valid pages", a, n))
	}
}
