package ftl

import (
	"fmt"

	"flexftl/internal/nand"
)

// Mapper is the page-level mapping table: LPN -> PPN with the inverse map
// and per-block valid-page accounting garbage collection needs. It is
// geometry-agnostic — only block/page dimensions matter — so the same type
// serves the 2-bit MLC kernel and the n-level nflex FTL.
type Mapper struct {
	blocksPerChip int
	pagesPerBlock int
	l2p           []nand.PPN // logical to physical; InvalidPPN when unmapped
	p2l           []LPN      // physical to logical; -1 when free/invalid
	validCount    []int32    // valid pages per flat block
	mapped        int64      // currently mapped logical pages
	// onValidChange, when set, fires after every validCount mutation with
	// the affected flat block — the mapper→pool notification keeping the
	// GC victim index coherent. Nil (standalone mappers) costs nothing.
	onValidChange func(flatBlock int)
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
	v.onValidChange = nil
	return &v
}

// resetLog clears a view's deferred-update log for the next epoch, keeping
// its capacity.
func (m *Mapper) resetLog() { m.log = m.log[:0] }

// SetValidHook registers the valid-count change notification (nil detaches).
func (m *Mapper) SetValidHook(fn func(flatBlock int)) { m.onValidChange = fn }

// NewMapper builds a mapper for logicalPages host pages over the geometry.
func NewMapper(g nand.Geometry, logicalPages int64) *Mapper {
	totalPages := int64(g.TotalPages())
	if logicalPages <= 0 || logicalPages > totalPages {
		panic(fmt.Sprintf("ftl: logical pages %d outside (0,%d]", logicalPages, totalPages))
	}
	m := &Mapper{
		blocksPerChip: g.BlocksPerChip,
		pagesPerBlock: g.PagesPerBlock(),
		l2p:           make([]nand.PPN, logicalPages),
		p2l:           make([]LPN, totalPages),
		validCount:    make([]int32, g.TotalBlocks()),
	}
	for i := range m.l2p {
		m.l2p[i] = nand.InvalidPPN
	}
	for i := range m.p2l {
		m.p2l[i] = -1
	}
	return m
}

// LogicalPages returns the host-visible page count.
func (m *Mapper) LogicalPages() int64 { return int64(len(m.l2p)) }

// Mapped returns how many logical pages currently have a mapping.
func (m *Mapper) Mapped() int64 { return m.mapped }

// blockOf returns the flat block index of a PPN.
func (m *Mapper) blockOf(ppn nand.PPN) int {
	return int(int64(ppn) / int64(m.pagesPerBlock))
}

// FlatBlock returns the flat index of a block address.
func (m *Mapper) FlatBlock(a nand.BlockAddr) int {
	return a.Chip*m.blocksPerChip + a.Block
}

// BlockOfFlat inverts FlatBlock.
func (m *Mapper) BlockOfFlat(flat int) nand.BlockAddr {
	return nand.BlockAddr{Chip: flat / m.blocksPerChip, Block: flat % m.blocksPerChip}
}

// Lookup returns the current physical page of an LPN.
func (m *Mapper) Lookup(lpn LPN) (nand.PPN, bool) {
	if lpn < 0 || int64(lpn) >= int64(len(m.l2p)) {
		return nand.InvalidPPN, false
	}
	ppn := m.l2p[lpn]
	return ppn, ppn != nand.InvalidPPN
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
	if m.p2l[newPPN] != -1 {
		panic(fmt.Sprintf("ftl: PPN %d already holds LPN %d", newPPN, m.p2l[newPPN]))
	}
	old := m.l2p[lpn]
	if m.logging {
		// Shard mode: defer the mutation for the barrier replay. old is the
		// pre-epoch mapping, exact under the epoch's unique-LPN rule.
		m.log = append(m.log, mapLogEntry{lpn: lpn, ppn: newPPN})
		return old
	}
	if old != nand.InvalidPPN {
		m.p2l[old] = -1
		oldBlk := m.blockOf(old)
		m.validCount[oldBlk]--
		if m.onValidChange != nil {
			m.onValidChange(oldBlk)
		}
	} else {
		m.mapped++
	}
	m.l2p[lpn] = newPPN
	m.p2l[newPPN] = lpn
	newBlk := m.blockOf(newPPN)
	m.validCount[newBlk]++
	if m.onValidChange != nil {
		m.onValidChange(newBlk)
	}
	return old
}

// Invalidate drops the mapping of lpn (host trim). It reports whether a
// mapping existed.
func (m *Mapper) Invalidate(lpn LPN) bool {
	if lpn < 0 || int64(lpn) >= int64(len(m.l2p)) {
		return false
	}
	old := m.l2p[lpn]
	if old == nand.InvalidPPN {
		return false
	}
	m.l2p[lpn] = nand.InvalidPPN
	m.p2l[old] = -1
	oldBlk := m.blockOf(old)
	m.validCount[oldBlk]--
	m.mapped--
	if m.onValidChange != nil {
		m.onValidChange(oldBlk)
	}
	return true
}

// LPNAt returns the logical page stored at a physical page, if the page is
// valid.
func (m *Mapper) LPNAt(ppn nand.PPN) (LPN, bool) {
	if ppn < 0 || int64(ppn) >= int64(len(m.p2l)) {
		return -1, false
	}
	lpn := m.p2l[ppn]
	return lpn, lpn != -1
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
	base := nand.PPN(int64(m.FlatBlock(a)) * int64(m.pagesPerBlock))
	for i := 0; i < m.pagesPerBlock; i++ {
		ppn := base + nand.PPN(i)
		if m.p2l[ppn] != -1 {
			dst = append(dst, ppn)
		}
	}
	return dst
}

// FirstValidPage returns the lowest-index valid physical page of a block.
func (m *Mapper) FirstValidPage(a nand.BlockAddr) (nand.PPN, bool) {
	base := nand.PPN(int64(m.FlatBlock(a)) * int64(m.pagesPerBlock))
	for i := 0; i < m.pagesPerBlock; i++ {
		ppn := base + nand.PPN(i)
		if m.p2l[ppn] != -1 {
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
	for _, ppn := range m.l2p {
		mix(uint64(ppn))
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
