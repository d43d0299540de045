package ftl

import (
	"fmt"
	"math/bits"

	"flexftl/internal/nand"
)

// SpareSource is where a Mapper reads its reverse map: the spare area of a
// programmed page, which holds a data page's LPN (SpareForLPN). A device
// serves it with nand.Device.PeekSpare, an untimed look at the page.
type SpareSource interface {
	PeekSpare(ppn nand.PPN) ([SpareSize]byte, bool)
}

// Mapper is the page-level mapping table: LPN -> PPN, one validity bit per
// physical page, and the per-block valid-page accounting garbage collection
// needs. The inverse map is not kept in RAM: a valid page's LPN is the one
// programmed into its spare area, read through the mapper's SpareSource —
// the layout of a page-mapping FTL whose controller cannot afford a
// reverse table. It is geometry-agnostic — only block/page dimensions
// matter — so the same type serves the 2-bit MLC kernel and the n-level
// nflex FTL.
//
// l2p stores a page number plus one in a uint32, so zero means unmapped.
// It and the validity bitmap are one zeroed allocation that stays untouched
// until used: 4 bytes per logical page and one bit per physical page. Every
// page number of a device fits, by nand.MaxPages.
type Mapper struct {
	// lay is the device's page numbering: the page → (chip, block) step
	// every Update takes twice.
	lay        nand.Layout
	spares     SpareSource
	l2p        []uint32 // logical to physical page number + 1; 0 when unmapped
	valid      []uint32 // bit ppn%32 of word ppn/32 is set while ppn holds a mapped LPN
	validCount []int32  // valid pages per flat block
	mapped     int64    // currently mapped logical pages
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
// numbering, reading the LPN of a valid page from spares.
func NewMapper(lay nand.Layout, logicalPages int64, spares SpareSource) *Mapper {
	totalPages := int64(lay.Pages())
	if logicalPages <= 0 || logicalPages > totalPages {
		panic(fmt.Sprintf("ftl: logical pages %d outside (0,%d]", logicalPages, totalPages))
	}
	tables := make([]uint32, logicalPages+(totalPages+31)/32)
	return &Mapper{
		lay:        lay,
		spares:     spares,
		l2p:        tables[:logicalPages:logicalPages],
		valid:      tables[logicalPages:],
		validCount: make([]int32, lay.Blocks()),
	}
}

// isValid reports whether the in-range ppn holds a mapped LPN.
func (m *Mapper) isValid(ppn nand.PPN) bool { return m.valid[ppn>>5]&(1<<(ppn&31)) != 0 }

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
	if !m.lay.InRange(newPPN) {
		panic(fmt.Sprintf("ftl: PPN %d out of range", newPPN))
	}
	if m.isValid(newPPN) {
		held, _ := m.LPNAt(newPPN)
		panic(fmt.Sprintf("ftl: PPN %d already holds LPN %d", newPPN, held))
	}
	old := nand.PPN(m.l2p[lpn]) - 1
	if m.logging {
		// Shard mode: defer the mutation for the barrier replay. old is the
		// pre-epoch mapping, exact under the epoch's unique-LPN rule.
		m.log = append(m.log, mapLogEntry{lpn: lpn, ppn: newPPN})
		return old
	}
	if old != nand.InvalidPPN {
		m.valid[old>>5] &^= 1 << (old & 31)
		m.noteValid(old, -1)
	} else {
		m.mapped++
	}
	m.l2p[lpn] = uint32(newPPN) + 1
	m.valid[newPPN>>5] |= 1 << (newPPN & 31)
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
	m.valid[old>>5] &^= 1 << (old & 31)
	m.mapped--
	m.noteValid(old, -1)
	return true
}

// LPNAt returns the logical page stored at a physical page, if the page is
// valid: the LPN programmed into its spare area.
func (m *Mapper) LPNAt(ppn nand.PPN) (LPN, bool) {
	if !m.lay.InRange(ppn) || !m.isValid(ppn) {
		return -1, false
	}
	spare, ok := m.spares.PeekSpare(ppn)
	lpn, _ := LPNFromSpare(spare[:])
	return lpn, ok
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
	lo := m.lay.PPN(a.Chip, a.Block, 0)
	m.scanValid(lo, lo+nand.PPN(m.lay.PagesPerBlock()), func(ppn nand.PPN) bool {
		dst = append(dst, ppn)
		return true
	})
	return dst
}

// FirstValidPage returns the lowest-index valid physical page of a block.
func (m *Mapper) FirstValidPage(a nand.BlockAddr) (nand.PPN, bool) {
	lo := m.lay.PPN(a.Chip, a.Block, 0)
	first := nand.InvalidPPN
	m.scanValid(lo, lo+nand.PPN(m.lay.PagesPerBlock()), func(ppn nand.PPN) bool {
		first = ppn
		return false
	})
	return first, first != nand.InvalidPPN
}

// scanValid calls visit on each valid page of [lo, hi) in ascending order,
// a bitmap word at a time, until visit returns false.
func (m *Mapper) scanValid(lo, hi nand.PPN, visit func(nand.PPN) bool) {
	for w := lo >> 5; w<<5 < hi; w++ {
		word := m.valid[w]
		if w<<5 < lo {
			word &^= 1<<(lo&31) - 1
		}
		if (w+1)<<5 > hi {
			word &= 1<<(hi&31) - 1
		}
		for ; word != 0; word &= word - 1 {
			if !visit(w<<5 + nand.PPN(bits.TrailingZeros32(word))) {
				return
			}
		}
	}
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
