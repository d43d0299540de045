// Package core implements the program-sequence formalism of Park et al.,
// "Improving Performance and Lifetime of NAND Storage Systems Using Relaxed
// Program Sequence" (DAC 2016): the four program-order constraints of the
// vendor fixed program sequence (FPS), the relaxed program sequence (RPS)
// obtained by dropping the over-specified Constraint 4, legality checking
// for arbitrary page program orders, and the canonical orders the paper
// studies (the FPS interleave, RPSfull, RPShalf and random RPS orders).
//
// Terminology follows the paper. A block has W word lines; on the paper's
// 2-bit MLC device word line k carries two pages, LSB(k) and MSB(k). The
// paper's Section 1 claims the relaxation "can be applicable for other NAND
// devices such as TLC NAND devices with a similar program scheme", so the
// formalism here is n-level: a word line of an n-bit cell carries n pages,
// from the coarsest level 0 (the LSB) through level 1 (the MSB) to the
// finest level n-1, each finer program refining the word line's Vth
// distribution. MLC is Levels = 2. A "program order" is a sequence of the
// n*W pages of a block; a "rule set" decides which next page programs are
// legal given the set already programmed. The paper's constraints read, for
// a page T_i(k) of level i on word line k:
//
//	C1: T_0(k) requires T_0(k-1)                    (k >= 1)
//	C2: T_i(k) requires T_i(k-1)                    (i >= 1, k >= 1)
//	C3: T_i(k) requires T_(i-1)(k) and T_(i-1)(k+1) (i >= 1; the second is
//	    vacuous on the last word line)
//	C4: T_i(k) must be the next page of the vendor's fixed sequence
//
// C3's second half shields word line k: once T_i(k) is programmed the only
// neighbour program that can still disturb it at refinement depth i is
// T_i(k+1) — the one-aggressor bound the paper proves for MLC RPS. On MLC,
// C4 is the paper's "LSB(k) requires MSB(k-2)".
package core

import "fmt"

// PageType is the level of a page within its word line: LSB (0) is the fast
// coarse page, MSB (1) the first refinement, and values from 2 up the finer
// refinements of TLC and QLC cells.
type PageType uint8

const (
	// LSB is the least-significant-bit page of a word line. Programming it
	// only needs two coarse Vth states, so it is fast (~500 us on 2X-nm MLC).
	LSB PageType = iota
	// MSB is the most-significant-bit page of an MLC word line. Programming
	// it refines the cell into four Vth states, which is slow (~2000 us) and
	// destructive to the paired LSB data while in progress.
	MSB
)

// String returns "LSB", "MSB", or "T<level>" for the finer levels.
func (t PageType) String() string {
	switch t {
	case LSB:
		return "LSB"
	case MSB:
		return "MSB"
	default:
		return fmt.Sprintf("T%d", uint8(t))
	}
}

// Page identifies one page within a block by word line and level.
type Page struct {
	WL   int      // word-line index, 0-based
	Type PageType // level: LSB, MSB, or a finer refinement
}

// String formats the page the way the paper writes it, e.g. "LSB(3)".
func (p Page) String() string { return fmt.Sprintf("%s(%d)", p.Type, p.WL) }

// Index maps a page to a dense index in [0, levels*wordLines), level-major:
// all LSB pages first, then all MSB pages, and so on. This is the internal
// bitmap layout, not a program order.
func (p Page) Index(wordLines int) int { return int(p.Type)*wordLines + p.WL }

// PageFromIndex inverts Page.Index. It peels levels off by subtraction — at
// most Levels-1 steps, one on MLC — because mapping-table lookups call it
// per page read and a division costs more than that.
func PageFromIndex(idx, wordLines int) Page {
	level := LSB
	for idx >= wordLines {
		idx -= wordLines
		level++
	}
	return Page{WL: idx, Type: level}
}

// Scheme fixes the block shape: bits per cell and word lines.
type Scheme struct {
	Levels    int // bits per cell: 2 = MLC, 3 = TLC, 4 = QLC
	WordLines int
}

// MLC returns the paper's 2-bit scheme.
func MLC(wordLines int) Scheme { return Scheme{Levels: 2, WordLines: wordLines} }

// TLC returns a 3-bit scheme.
func TLC(wordLines int) Scheme { return Scheme{Levels: 3, WordLines: wordLines} }

// Validate rejects degenerate schemes.
func (s Scheme) Validate() error {
	if s.Levels < 2 || s.Levels > 255 {
		return fmt.Errorf("core: need 2..255 levels, got %d", s.Levels)
	}
	if s.WordLines < 1 {
		return fmt.Errorf("core: block needs at least one word line, got %d", s.WordLines)
	}
	return nil
}

// Pages returns the page count of a block.
func (s Scheme) Pages() int { return s.Levels * s.WordLines }

// contains reports whether p names a page of the block.
func (s Scheme) contains(p Page) bool {
	return p.WL >= 0 && p.WL < s.WordLines && int(p.Type) < s.Levels
}

// BlockState tracks which pages of a block have been programmed, so that a
// rule set can decide the legality of the next program. The zero value is
// not usable; call NewBlockState or BlockStateOver.
type BlockState struct {
	scheme     Scheme
	written    []uint64 // one bit per page, bit Page.Index
	programmed int
}

// BitmapWords is the length of a block state's bitmap: one bit per page,
// rounded up to whole 64-bit words.
func BitmapWords(s Scheme) int { return (s.Pages() + 63) / 64 }

// NewBlockState returns an all-erased state for a block of the given shape.
func NewBlockState(s Scheme) *BlockState {
	st := BlockStateOver(s, make([]uint64, BitmapWords(s)))
	return &st
}

// BlockStateOver returns an all-erased state whose bitmap is the caller's
// all-zero slice of BitmapWords(s) words — a device carves one allocation
// into the states of all its blocks this way.
func BlockStateOver(s Scheme, written []uint64) BlockState {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if len(written) != BitmapWords(s) {
		panic(fmt.Sprintf("core: bitmap of %d words for a block of %d pages", len(written), s.Pages()))
	}
	return BlockState{scheme: s, written: written}
}

// has reports whether the page at bitmap index idx is programmed.
func (s *BlockState) has(idx int) bool { return s.written[idx>>6]&(1<<(idx&63)) != 0 }

// Scheme returns the block shape.
func (s *BlockState) Scheme() Scheme { return s.scheme }

// Pages returns the total number of pages (Levels per word line).
func (s *BlockState) Pages() int { return s.scheme.Pages() }

// Programmed returns how many pages have been programmed so far.
func (s *BlockState) Programmed() int { return s.programmed }

// Full reports whether every page of the block has been programmed.
func (s *BlockState) Full() bool { return s.programmed == s.scheme.Pages() }

// Written reports whether the given page has been programmed. Out-of-range
// pages report false.
func (s *BlockState) Written(p Page) bool {
	return s.scheme.contains(p) && s.has(p.Index(s.scheme.WordLines))
}

// Mark records the page as programmed. It panics on double programming or an
// out-of-range page: NAND cannot program a page twice without an erase, so
// this is a simulator bug, not a recoverable condition.
func (s *BlockState) Mark(p Page) {
	if _, err := checkProgrammable(s, p); err != nil {
		panic(err)
	}
	s.MarkChecked(p)
}

// MarkChecked records a page that a RuleSet's Check has just accepted as
// programmed, without Mark's own range and double-program test: every Check
// makes it first. Device.ProgramPPN is the one caller that pairs the two.
func (s *BlockState) MarkChecked(p Page) {
	idx := p.Index(s.scheme.WordLines)
	s.written[idx>>6] |= 1 << (idx & 63)
	s.programmed++
}

// unmark undoes a Mark (exhaustive search backtracking).
func (s *BlockState) unmark(p Page) {
	idx := p.Index(s.scheme.WordLines)
	s.written[idx>>6] &^= 1 << (idx & 63)
	s.programmed--
}

// Reset returns the state to all-erased (models a block erase).
func (s *BlockState) Reset() {
	clear(s.written)
	s.programmed = 0
}

// Clone returns an independent copy of the state.
func (s *BlockState) Clone() *BlockState {
	c := NewBlockState(s.scheme)
	copy(c.written, s.written)
	c.programmed = s.programmed
	return c
}

// ConstraintViolation describes which paper constraint a proposed program
// would violate and which prerequisite page is missing.
type ConstraintViolation struct {
	Constraint int  // 1..4, as numbered in the paper (Section 2.2)
	Page       Page // the page whose program was attempted
	Missing    Page // the prerequisite page that has not been written
}

// Error implements error.
func (v *ConstraintViolation) Error() string {
	return fmt.Sprintf("core: programming %v violates Constraint %d: %v not yet written",
		v.Page, v.Constraint, v.Missing)
}

// RuleSet is a program-sequence scheme: it decides whether programming page
// p next is legal given the block state.
type RuleSet interface {
	// Name identifies the scheme ("FPS", "RPS", "Unconstrained").
	Name() string
	// Check returns nil if programming p next is legal, or a
	// *ConstraintViolation describing the first violated constraint; it
	// rejects out-of-range and programmed pages (BlockState.MarkChecked).
	Check(s *BlockState, p Page) error
}

// fpsRules enforces Constraints 1-4; rpsRules enforces Constraints 1-3.
type fpsRules struct{}
type rpsRules struct{}

// unconstrainedRules allows any order. It exists to reproduce the worst-case
// interference study of Figure 2(a): real devices forbid it.
type unconstrainedRules struct{}

// FPS is the vendor fixed program sequence rule set (Constraints 1-4). Under
// FPS exactly one program order exists for a block, the canonical staircase
// of Figure 2(b) (FixedOrder).
var FPS RuleSet = fpsRules{}

// RPS is the paper's relaxed program sequence rule set (Constraints 1-3).
// Constraint 4 — on MLC, "before LSB(k), MSB(k-2) must be written" — is
// dropped because programming WL(k-2) does not interfere with WL(k).
var RPS RuleSet = rpsRules{}

// Unconstrained allows any page order. Only the reliability study uses it.
var Unconstrained RuleSet = unconstrainedRules{}

func (fpsRules) Name() string           { return "FPS" }
func (rpsRules) Name() string           { return "RPS" }
func (unconstrainedRules) Name() string { return "Unconstrained" }

// checkProgrammable rejects pages outside the block and double programs —
// what even an unconstrained device refuses — and returns p's bitmap index.
func checkProgrammable(s *BlockState, p Page) (int, error) {
	if !s.scheme.contains(p) {
		return 0, fmt.Errorf("core: page %v out of range for %d levels x %d word lines", p, s.scheme.Levels, s.scheme.WordLines)
	}
	idx := p.Index(s.scheme.WordLines)
	if s.has(idx) {
		return 0, fmt.Errorf("core: page %v already programmed", p)
	}
	return idx, nil
}

// checkCommon enforces Constraints 1-3, shared by FPS and RPS. In the
// level-major bitmap the prerequisites of the page at idx sit at fixed
// offsets: the same level one word line down at idx-1, the level below on
// the same word line at idx-W and on the next word line at idx-W+1.
func checkCommon(s *BlockState, p Page) error {
	idx, err := checkProgrammable(s, p)
	if err != nil {
		return err
	}
	w := s.scheme.WordLines
	if p.WL >= 1 && !s.has(idx-1) {
		chain := 1
		if p.Type != LSB {
			chain = 2
		}
		return &ConstraintViolation{Constraint: chain, Page: p, Missing: Page{WL: p.WL - 1, Type: p.Type}}
	}
	if p.Type != LSB {
		// A refinement needs the word line's previous level to refine. The
		// paper's Constraint 2 chain plus Constraint 3 imply this on every
		// legal order; it is checked explicitly so single illegal probes are
		// also rejected.
		if !s.has(idx - w) {
			return &ConstraintViolation{Constraint: 3, Page: p, Missing: Page{WL: p.WL, Type: p.Type - 1}}
		}
		if p.WL+1 < w && !s.has(idx-w+1) {
			return &ConstraintViolation{Constraint: 3, Page: p, Missing: Page{WL: p.WL + 1, Type: p.Type - 1}}
		}
	}
	return nil
}

func (rpsRules) Check(s *BlockState, p Page) error { return checkCommon(s, p) }

// Check enforces C1-3 and then C4: p must sit at position Programmed() of
// the fixed sequence. This is the over-specified constraint RPS removes.
func (fpsRules) Check(s *BlockState, p Page) error {
	if err := checkCommon(s, p); err != nil {
		return err
	}
	if fixedPosition(s.scheme, p) == s.programmed {
		return nil
	}
	// The page the sequence is waiting for is its first unwritten one (on a
	// block programmed under FPS, the page at position Programmed()).
	missing := p
	walkFixedOrder(s.scheme, func(q Page) bool {
		missing = q
		return s.Written(q)
	})
	return &ConstraintViolation{Constraint: 4, Page: p, Missing: missing}
}

func (unconstrainedRules) Check(s *BlockState, p Page) error {
	_, err := checkProgrammable(s, p)
	return err
}

// ValidateOrder checks a complete program order of a block (it must mention
// every page exactly once) against a rule set. It returns the index of the
// first illegal program and the error, or (-1, nil) when the order is legal.
func ValidateOrder(rules RuleSet, scheme Scheme, order []Page) (int, error) {
	s := NewBlockState(scheme)
	for i, p := range order {
		if err := rules.Check(s, p); err != nil {
			return i, err
		}
		s.Mark(p)
	}
	if !s.Full() {
		return len(order), fmt.Errorf("core: order covers %d of %d pages", s.Programmed(), s.Pages())
	}
	return -1, nil
}

// LegalNext returns every page whose program is legal under the rule set in
// the given state, in Page.Index order (LSB by word line, then MSB, ...).
func LegalNext(rules RuleSet, s *BlockState) []Page {
	var out []Page
	for idx := 0; idx < s.Pages(); idx++ {
		if p := PageFromIndex(idx, s.scheme.WordLines); rules.Check(s, p) == nil {
			out = append(out, p)
		}
	}
	return out
}

// CountOrders counts the number of complete legal program orders of a block
// under the rule set, by exhaustive search. It is exponential and intended
// for small blocks in tests (FPS must give exactly 1; RPS grows
// combinatorially).
func CountOrders(rules RuleSet, scheme Scheme) int {
	s := NewBlockState(scheme)
	var rec func() int
	rec = func() int {
		if s.Full() {
			return 1
		}
		total := 0
		for _, p := range LegalNext(rules, s) {
			s.Mark(p)
			total += rec()
			s.unmark(p) // Reset would lose the prefix
		}
		return total
	}
	return rec()
}
