package core

import "flexftl/internal/rng"

// walkFixedOrder visits the vendor staircase in order until visit returns
// false: in round r the pages T_(n-1)(r-2(n-1)), ..., T_1(r-2), T_0(r) —
// finest first — for every word line in range.
func walkFixedOrder(s Scheme, visit func(Page) bool) {
	lastRound := (s.WordLines - 1) + 2*(s.Levels-1)
	for r := 0; r <= lastRound; r++ {
		for i := s.Levels - 1; i >= 0; i-- {
			if k := r - 2*i; k >= 0 && k < s.WordLines {
				if !visit(Page{WL: k, Type: PageType(i)}) {
					return
				}
			}
		}
	}
}

// fixedPosition returns the index of p within FixedOrder(s), computed in
// O(Levels) without building the order: the pages of all earlier rounds
// (level j contributes its word lines below r-2j) plus the finer pages of
// p's own round.
func fixedPosition(s Scheme, p Page) int {
	r := p.WL + 2*int(p.Type)
	pos := 0
	for j := 0; j < s.Levels; j++ {
		k := r - 2*j // level j's word line in round r
		pos += min(max(k, 0), s.WordLines)
		if j > int(p.Type) && k >= 0 && k < s.WordLines {
			pos++
		}
	}
	return pos
}

// FixedOrder returns the canonical vendor staircase, the unique complete
// order satisfying Constraints 1-4. For MLC it is exactly the paper's
// Figure 2(b) interleave (FPSOrder).
func FixedOrder(s Scheme) []Page {
	order := make([]Page, 0, s.Pages())
	walkFixedOrder(s, func(p Page) bool {
		order = append(order, p)
		return true
	})
	return order
}

// FPSOrder returns the fixed program sequence of Figure 2(b) for an MLC
// block: LSB(0), LSB(1), MSB(0), LSB(2), MSB(1), ..., LSB(W-1), MSB(W-2),
// MSB(W-1).
func FPSOrder(wordLines int) []Page { return FixedOrder(MLC(wordLines)) }

// RelaxedFullOrder returns the n-phase order: all LSB pages in word-line
// order, then all MSB pages, then each finer level in turn. A block is a
// "fast block" while its LSB phase is being filled and a "slow block"
// afterwards.
func RelaxedFullOrder(s Scheme) []Page {
	order := make([]Page, s.Pages())
	for idx := range order {
		order[idx] = PageFromIndex(idx, s.WordLines)
	}
	return order
}

// RPSFullOrder returns the RPSfull order of Figure 3(a) for an MLC block —
// the 2PO (two-phase ordering) flexFTL adopts.
func RPSFullOrder(wordLines int) []Page { return RelaxedFullOrder(MLC(wordLines)) }

// RPSHalfOrder returns an instance of the half-and-half interleave of
// Figure 3(b): the first half of the LSB pages are written in a row, then
// LSB and MSB writes alternate, and the block finishes with the remaining
// MSB pages.
func RPSHalfOrder(wordLines int) []Page {
	half := wordLines / 2
	if half == 0 {
		half = 1
	}
	order := make([]Page, 0, 2*wordLines)
	for wl := 0; wl < half && wl < wordLines; wl++ {
		order = append(order, Page{WL: wl, Type: LSB})
	}
	msb := 0
	for wl := half; wl < wordLines; wl++ {
		order = append(order, Page{WL: wl, Type: LSB})
		if msb <= wl-1 { // C3: MSB(k) needs LSB(k+1), satisfied since msb+1 <= wl
			order = append(order, Page{WL: msb, Type: MSB})
			msb++
		}
	}
	for ; msb < wordLines; msb++ {
		order = append(order, Page{WL: msb, Type: MSB})
	}
	return order
}

// RandomRPSOrder returns a uniformly random-ish legal RPS order (Figure 3(c))
// by repeatedly picking one of the legal next pages. Useful for property
// tests and for demonstrating scheme flexibility.
func RandomRPSOrder(src *rng.Source, scheme Scheme) []Page {
	s := NewBlockState(scheme)
	order := make([]Page, 0, scheme.Pages())
	for !s.Full() {
		legal := LegalNext(RPS, s)
		p := legal[src.Intn(len(legal))]
		s.Mark(p)
		order = append(order, p)
	}
	return order
}

// appendWordLine appends every page of one word line, coarsest level first.
func appendWordLine(order []Page, s Scheme, wl int) []Page {
	for i := 0; i < s.Levels; i++ {
		order = append(order, Page{WL: wl, Type: PageType(i)})
	}
	return order
}

// RandomUnconstrainedOrder returns a uniformly random permutation of the
// block's pages, ignoring every constraint. Real devices forbid such orders;
// the reliability study uses it to reproduce the Figure 2(a) worst case.
func RandomUnconstrainedOrder(src *rng.Source, s Scheme) []Page {
	order := make([]Page, 0, s.Pages())
	for wl := 0; wl < s.WordLines; wl++ {
		order = appendWordLine(order, s, wl)
	}
	src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// WorstCaseOrder returns an unconstrained order realizing the Figure 2(a)
// worst case: even word lines are fully programmed before any odd word line,
// so every interior even word line later suffers all 2*Levels neighbour
// programs as aggressors after its own finest program — on MLC the four of
// LSB(k-1), MSB(k-1), LSB(k+1), MSB(k+1). Real devices forbid this order.
func WorstCaseOrder(s Scheme) []Page {
	order := make([]Page, 0, s.Pages())
	for _, parity := range []int{0, 1} {
		for wl := parity; wl < s.WordLines; wl += 2 {
			order = appendWordLine(order, s, wl)
		}
	}
	return order
}

// TwoPhase reports, for an MLC block being filled under 2PO (RPSfull), which
// page comes next after n pages have been programmed. The first WordLines
// programs are LSB(0..W-1); the rest are MSB(0..W-1).
func TwoPhase(wordLines, programmed int) (Page, bool) {
	if programmed < 0 || programmed >= 2*wordLines {
		return Page{}, false
	}
	return PageFromIndex(programmed, wordLines), true
}

// AggressorCounts computes, for each word line, how many neighbour page
// programs (to WL(k-1) or WL(k+1)) occur after the word line's finest page
// is programmed in the given order. The paper's reliability argument is that
// the total cell-to-cell interference on WL(k) is proportional to this
// count; both the fixed sequence and any legal RPS order bound it by 1 (only
// the finest page of WL(k+1)), while unconstrained orders reach 2*Levels.
// Word lines whose finest page is absent — no settled data — report -1.
func AggressorCounts(s Scheme, order []Page) []int {
	pos := make(map[Page]int, len(order))
	for i, p := range order {
		pos[p] = i
	}
	counts := make([]int, s.WordLines)
	for wl := range counts {
		finest, ok := pos[Page{WL: wl, Type: PageType(s.Levels - 1)}]
		if !ok {
			counts[wl] = -1
			continue
		}
		for _, nb := range []int{wl - 1, wl + 1} {
			for i := 0; i < s.Levels; i++ {
				if at, ok := pos[Page{WL: nb, Type: PageType(i)}]; ok && at > finest {
					counts[wl]++
				}
			}
		}
	}
	return counts
}

// MaxAggressors returns the maximum aggressor count over fully programmed
// word lines of the order.
func MaxAggressors(s Scheme, order []Page) int {
	worst := 0
	for _, c := range AggressorCounts(s, order) {
		worst = max(worst, c)
	}
	return worst
}
