package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"flexftl/internal/alloctest"
	"flexftl/internal/rng"
)

// everyLevels runs a subtest per bits-per-cell the repo models: the paper's
// MLC plus the TLC and QLC its Section 1 claims the same rules apply to.
func everyLevels(t *testing.T, f func(t *testing.T, levels int)) {
	for levels := 2; levels <= 4; levels++ {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) { f(t, levels) })
	}
}

func TestSchemeValidate(t *testing.T) {
	for _, s := range []Scheme{MLC(8), TLC(8), {Levels: 4, WordLines: 1}} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	for _, s := range []Scheme{{Levels: 1, WordLines: 4}, {Levels: 2, WordLines: 0}, {Levels: 256, WordLines: 4}} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestPageIndexRoundTrip(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		s := Scheme{Levels: levels, WordLines: 5}
		seen := make(map[int]bool)
		for k := 0; k < s.WordLines; k++ {
			for l := 0; l < levels; l++ {
				p := Page{WL: k, Type: PageType(l)}
				idx := p.Index(s.WordLines)
				if idx < 0 || idx >= s.Pages() {
					t.Fatalf("index %d out of range for %v", idx, p)
				}
				if seen[idx] {
					t.Fatalf("index %d duplicated", idx)
				}
				seen[idx] = true
				if back := PageFromIndex(idx, s.WordLines); back != p {
					t.Fatalf("round trip %v -> %d -> %v", p, idx, back)
				}
			}
		}
	})
}

func TestPageString(t *testing.T) {
	for p, want := range map[Page]string{
		{WL: 3, Type: LSB}: "LSB(3)",
		{WL: 0, Type: MSB}: "MSB(0)",
		{WL: 7, Type: 2}:   "T2(7)",
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestBlockStateBasics(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		s := NewBlockState(Scheme{Levels: levels, WordLines: 4})
		if s.Pages() != 4*levels || s.Scheme().WordLines != 4 || s.Full() {
			t.Fatal("fresh state wrong")
		}
		p := Page{WL: 0, Type: LSB}
		if s.Written(p) {
			t.Error("fresh state reports page written")
		}
		s.Mark(p)
		if !s.Written(p) || s.Programmed() != 1 {
			t.Error("Mark not reflected")
		}
		s.Reset()
		if s.Written(p) || s.Programmed() != 0 {
			t.Error("Reset did not clear")
		}
		if s.Written(Page{WL: -1}) || s.Written(Page{WL: 0, Type: PageType(levels)}) {
			t.Error("out-of-range page reported written")
		}
	})
}

func TestBlockStateDoubleProgramPanics(t *testing.T) {
	s := NewBlockState(MLC(2))
	s.Mark(Page{WL: 0, Type: LSB})
	for _, p := range []Page{{WL: 0, Type: LSB}, {WL: 9, Type: LSB}, {WL: 0, Type: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mark(%v) did not panic", p)
				}
			}()
			s.Mark(p)
		}()
	}
}

func TestBlockStateClone(t *testing.T) {
	s := NewBlockState(TLC(3))
	s.Mark(Page{WL: 0, Type: LSB})
	c := s.Clone()
	c.Mark(Page{WL: 1, Type: LSB})
	if s.Written(Page{WL: 1, Type: LSB}) {
		t.Error("clone mutated original")
	}
	if !c.Written(Page{WL: 0, Type: LSB}) {
		t.Error("clone lost state")
	}
}

// TestBlockStateOverSharesOneBitmap is the device's use: many block states
// carved out of one allocation stay independent.
func TestBlockStateOverSharesOneBitmap(t *testing.T) {
	s := TLC(4)
	w := BitmapWords(s)
	bitmap := make([]uint64, 2*w)
	a := BlockStateOver(s, bitmap[:w])
	b := BlockStateOver(s, bitmap[w:])
	a.Mark(Page{WL: 0, Type: LSB})
	if b.Written(Page{WL: 0, Type: LSB}) || b.Programmed() != 0 {
		t.Error("neighbouring view saw the mark")
	}
	if bitmap[0] != 1 {
		t.Error("mark did not land in the shared bitmap")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-size bitmap accepted")
		}
	}()
	BlockStateOver(s, bitmap)
}

// TestFPSCanonicalOrder verifies Figure 2(b) and its staircase
// generalization: the canonical order is legal under FPS (hence RPS), and
// fixedPosition — what FPS.Check decides by — agrees with the generated
// order at every index.
func TestFPSCanonicalOrder(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		for _, wl := range []int{1, 2, 3, 4, 6, 8, 32} {
			s := Scheme{Levels: levels, WordLines: wl}
			order := FixedOrder(s)
			if len(order) != s.Pages() {
				t.Fatalf("wl=%d: fixed order length %d", wl, len(order))
			}
			for _, rules := range []RuleSet{FPS, RPS} {
				if i, err := ValidateOrder(rules, s, order); err != nil {
					t.Fatalf("wl=%d: fixed order illegal under %s at %d: %v", wl, rules.Name(), i, err)
				}
			}
			for i, p := range order {
				if got := fixedPosition(s, p); got != i {
					t.Fatalf("wl=%d: fixedPosition(%v) = %d, want %d", wl, p, got, i)
				}
			}
			if got := MaxAggressors(s, order); got > 1 {
				t.Errorf("wl=%d: fixed order max aggressors = %d", wl, got)
			}
		}
	})
	// Spot check the exact Figure 2(b) numbering for 6 word lines:
	// 0:LSB0 1:LSB1 2:MSB0 3:LSB2 4:MSB1 5:LSB3 6:MSB2 ...
	want := []Page{
		{0, LSB}, {1, LSB}, {0, MSB}, {2, LSB}, {1, MSB}, {3, LSB},
		{2, MSB}, {4, LSB}, {3, MSB}, {5, LSB}, {4, MSB}, {5, MSB},
	}
	got := FPSOrder(6)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FPSOrder(6)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFPSOrderIsUnique: the fixed sequence is the only order FPS admits, at
// any level count.
func TestFPSOrderIsUnique(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		for wl := 1; wl <= 4; wl++ {
			if n := CountOrders(FPS, Scheme{Levels: levels, WordLines: wl}); n != 1 {
				t.Errorf("wl=%d: FPS admits %d orders, want exactly 1", wl, n)
			}
		}
	})
}

// TestRPSAdmitsManyOrders pins how much freedom dropping Constraint 4 buys:
// RPS order counts grow combinatorially with word lines and levels. The
// constants up to MLC(6), TLC(4) and QLC(3) are the exhaustive counts of the
// two implementations this one replaced, which agreed at Levels = 2.
//
// On MLC the counts are the Catalan numbers C(n-1) for n word lines.
// Constraint 1 orders the LSB pages L0 < L1 < ... and Constraint 2 the MSB
// pages M0 < M1 < ...; Constraint 3 makes Mk wait for L(k+1) (and for Lk on
// the last word line). So L0 comes first, M(n-1) comes last, and in between
// the n-1 programs L1..L(n-1) interleave with the n-1 programs M0..M(n-2) so
// that no prefix holds more MSB than LSB programs: a Dyck path of semilength
// n-1, of which there are C(n-1).
func TestRPSAdmitsManyOrders(t *testing.T) {
	for _, c := range []struct {
		s    Scheme
		want int
	}{
		// With 2 word lines MLC RPS is still forced (L0,L1,M0,M1);
		// flexibility appears from 3 word lines on.
		{MLC(1), 1}, {MLC(2), 1}, {MLC(3), 2}, {MLC(4), 5}, {MLC(5), 14}, {MLC(6), 42},
		{MLC(7), 132}, {MLC(8), 429}, {MLC(9), 1430}, {MLC(10), 4862},
		{TLC(1), 1}, {TLC(2), 1}, {TLC(3), 4}, {TLC(4), 29}, {TLC(5), 290},
		{Scheme{Levels: 4, WordLines: 2}, 1}, {Scheme{Levels: 4, WordLines: 3}, 8},
		{Scheme{Levels: 4, WordLines: 4}, 169},
	} {
		if got := CountOrders(RPS, c.s); got != c.want {
			t.Errorf("%+v: RPS admits %d orders, want %d", c.s, got, c.want)
		}
	}
}

// TestRPSOrders verifies Figure 3: RPSfull (the n-phase order), RPShalf and
// random legal orders all satisfy Constraints 1-3 but (except degenerate
// sizes) violate the fixed sequence, Constraint 4.
func TestRPSOrders(t *testing.T) {
	check := func(t *testing.T, name string, s Scheme, order []Page) {
		if i, err := ValidateOrder(RPS, s, order); err != nil {
			t.Errorf("%+v %s: illegal under RPS at %d: %v", s, name, i, err)
		}
		if s.WordLines < 4 {
			return
		}
		var cv *ConstraintViolation
		if _, err := ValidateOrder(FPS, s, order); !errors.As(err, &cv) || cv.Constraint != 4 {
			t.Errorf("%+v %s: expected Constraint 4 violation under FPS, got %v", s, name, err)
		}
	}
	for _, wl := range []int{2, 4, 6, 8, 64, 128} {
		check(t, "RPShalf", MLC(wl), RPSHalfOrder(wl))
		for levels := 2; levels <= 4; levels++ {
			s := Scheme{Levels: levels, WordLines: wl}
			check(t, "RPSfull", s, RelaxedFullOrder(s))
		}
	}
}

// randomRPSOrder draws a scheme of 2-4 levels and a legal RPS order over it.
func randomRPSOrder(seed uint64, levelsRaw, wlRaw uint8) (Scheme, []Page) {
	s := Scheme{Levels: 2 + int(levelsRaw%3), WordLines: 1 + int(wlRaw%12)}
	return s, RandomRPSOrder(rng.New(seed), s)
}

func TestRandomRPSOrdersLegal(t *testing.T) {
	f := func(seed uint64, levelsRaw, wlRaw uint8) bool {
		s, order := randomRPSOrder(seed, levelsRaw, wlRaw)
		idx, err := ValidateOrder(RPS, s, order)
		if err != nil {
			t.Logf("%+v: illegal at %d: %v (order %v)", s, idx, err, order)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every complete legal RPS order has max aggressor count <= 1 —
// the paper's reliability invariant (Section 2.2), which the shielding half
// of Constraint 3 extends to TLC and QLC.
func TestRPSAggressorBoundProperty(t *testing.T) {
	f := func(seed uint64, levelsRaw, wlRaw uint8) bool {
		s, order := randomRPSOrder(seed, levelsRaw, wlRaw)
		return MaxAggressors(s, order) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: random RPS orders are always complete permutations of the block.
func TestRandomRPSOrderCompleteProperty(t *testing.T) {
	f := func(seed uint64, levelsRaw, wlRaw uint8) bool {
		s, order := randomRPSOrder(seed, levelsRaw, wlRaw)
		seen := map[Page]bool{}
		for _, p := range order {
			seen[p] = true
		}
		return len(order) == s.Pages() && len(seen) == s.Pages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConstraintViolationDetails walks the paper's constraint numbers at every
// level count: the same probe sequence one level deeper reports the same
// constraint.
func TestConstraintViolationDetails(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		for top := PageType(1); int(top) < levels; top++ {
			below := top - 1
			s := NewBlockState(Scheme{Levels: levels, WordLines: 4})
			// Bring every level below `below` to completion so only the pair
			// (below, top) is in play.
			for l := PageType(0); l < below; l++ {
				for k := 0; k < 4; k++ {
					s.Mark(Page{WL: k, Type: l})
				}
			}
			expect := func(rules RuleSet, p Page, constraint int, missing Page) {
				t.Helper()
				var cv *ConstraintViolation
				err := rules.Check(s, p)
				if !errors.As(err, &cv) || cv.Constraint != constraint || cv.Missing != missing || cv.Page != p {
					t.Errorf("%s.Check(%v) = %v, want Constraint %d missing %v", rules.Name(), p, err, constraint, missing)
				}
			}
			chain := 2 // the same-level chain is C1 on LSB pages, C2 above
			if below == LSB {
				chain = 1
			}
			expect(RPS, Page{WL: 1, Type: below}, chain, Page{WL: 0, Type: below})
			// A refinement with nothing to refine: C3 (own word line).
			expect(RPS, Page{WL: 0, Type: top}, 3, Page{WL: 0, Type: below})
			s.Mark(Page{WL: 0, Type: below})
			// Still unshielded: C3 (next word line).
			expect(RPS, Page{WL: 0, Type: top}, 3, Page{WL: 1, Type: below})
			s.Mark(Page{WL: 1, Type: below})
			if err := RPS.Check(s, Page{WL: 0, Type: top}); err != nil {
				t.Errorf("%v should be legal now: %v", Page{WL: 0, Type: top}, err)
			}
			s.Mark(Page{WL: 2, Type: below})
			expect(RPS, Page{WL: 1, Type: top}, 2, Page{WL: 0, Type: top})
			if err := RPS.Check(s, Page{WL: 9, Type: LSB}); err == nil {
				t.Error("out-of-range probe accepted")
			}
			if err := RPS.Check(s, Page{WL: 0, Type: below}); err == nil {
				t.Error("double program accepted")
			}
		}
	})
	// Constraint 4 is the fixed sequence: after LSB(0), LSB(1) a stock MLC
	// part wants MSB(0) next, which is the paper's "LSB(2) requires MSB(0)".
	s := NewBlockState(MLC(4))
	s.Mark(Page{WL: 0, Type: LSB})
	s.Mark(Page{WL: 1, Type: LSB})
	var cv *ConstraintViolation
	err := FPS.Check(s, Page{WL: 2, Type: LSB})
	if !errors.As(err, &cv) || cv.Constraint != 4 || cv.Missing != (Page{WL: 0, Type: MSB}) {
		t.Errorf("C4 violation not reported correctly: %v", err)
	}
	if err := RPS.Check(s, Page{WL: 2, Type: LSB}); err != nil {
		t.Errorf("RPS must allow LSB(2) here (Constraint 4 dropped): %v", err)
	}
}

func TestMSBRequiresOwnLSBOnLastWordLine(t *testing.T) {
	// On the last word line Constraint 3's shielding half is vacuous; the
	// device still cannot program MSB before LSB of the same word line.
	s := NewBlockState(MLC(2))
	s.Mark(Page{WL: 0, Type: LSB})
	if err := RPS.Check(s, Page{WL: 1, Type: MSB}); err == nil {
		t.Error("MSB(1) legal without LSB(1)")
	}
}

func TestLegalNext(t *testing.T) {
	s := NewBlockState(MLC(3))
	legal := LegalNext(RPS, s)
	if len(legal) != 1 || legal[0] != (Page{WL: 0, Type: LSB}) {
		t.Fatalf("fresh block legal set = %v, want [LSB(0)]", legal)
	}
	s.Mark(Page{WL: 0, Type: LSB})
	s.Mark(Page{WL: 1, Type: LSB})
	legal = LegalNext(RPS, s)
	// Now LSB(2) and MSB(0) are both legal under RPS.
	want := map[Page]bool{{WL: 2, Type: LSB}: true, {WL: 0, Type: MSB}: true}
	if len(legal) != 2 || !want[legal[0]] || !want[legal[1]] {
		t.Fatalf("legal set = %v, want LSB(2)+MSB(0)", legal)
	}
	// Under FPS, LSB(2) is blocked by C4; only MSB(0) legal.
	legal = LegalNext(FPS, s)
	if len(legal) != 1 || legal[0] != (Page{WL: 0, Type: MSB}) {
		t.Fatalf("FPS legal set = %v, want [MSB(0)]", legal)
	}
}

func TestTwoPhase(t *testing.T) {
	const wl = 4
	// The 2PO sequence must be exactly RPSfull.
	full := RPSFullOrder(wl)
	for n := 0; n < 2*wl; n++ {
		if p, ok := TwoPhase(wl, n); !ok || p != full[n] {
			t.Errorf("TwoPhase(%d) = %v, %v; RPSfull[%d] = %v", n, p, ok, n, full[n])
		}
	}
	if full[0] != (Page{WL: 0, Type: LSB}) || full[wl] != (Page{WL: 0, Type: MSB}) {
		t.Errorf("RPSfull phases start at %v and %v", full[0], full[wl])
	}
	if _, ok := TwoPhase(wl, 2*wl); ok {
		t.Error("TwoPhase past the end reported ok")
	}
	if _, ok := TwoPhase(wl, -1); ok {
		t.Error("TwoPhase(-1) reported ok")
	}
}

func TestAggressorCounts(t *testing.T) {
	const wl = 8
	for name, order := range map[string][]Page{
		"FPS":     FPSOrder(wl),
		"RPSfull": RPSFullOrder(wl),
		"RPShalf": RPSHalfOrder(wl),
	} {
		counts := AggressorCounts(MLC(wl), order)
		for k, c := range counts {
			limit := 1
			if k == wl-1 {
				limit = 0 // last word line has no MSB(k+1) aggressor
			}
			if c > limit {
				t.Errorf("%s: WL(%d) aggressor count %d > %d", name, k, c, limit)
			}
		}
	}
}

// TestUnconstrainedOrderWorstCase reproduces the Figure 2(a) argument: an
// unconstrained order can expose a word line to every program of both its
// neighbours — 4 aggressor programs on MLC, 2*Levels in general.
func TestUnconstrainedOrderWorstCase(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		s := Scheme{Levels: levels, WordLines: 8}
		order := WorstCaseOrder(s)
		if i, err := ValidateOrder(Unconstrained, s, order); err != nil {
			t.Fatalf("worst-case order invalid at %d: %v", i, err)
		}
		if _, err := ValidateOrder(RPS, s, order); err == nil {
			t.Error("worst-case order must be illegal under RPS")
		}
		if got := MaxAggressors(s, order); got != 2*levels {
			t.Errorf("worst-case max aggressors = %d, want %d", got, 2*levels)
		}
		counts := AggressorCounts(s, order)
		for k := 2; k < s.WordLines-1; k += 2 {
			if counts[k] != 2*levels {
				t.Errorf("interior even WL(%d) aggressors = %d, want %d", k, counts[k], 2*levels)
			}
		}
	})
}

func TestPartialOrderAggressors(t *testing.T) {
	// A block whose finest pages were never written reports -1 counts.
	everyLevels(t, func(t *testing.T, levels int) {
		counts := AggressorCounts(Scheme{Levels: levels, WordLines: 2}, []Page{{0, LSB}, {1, LSB}})
		if counts[0] != -1 || counts[1] != -1 {
			t.Errorf("counts = %v, want [-1 -1]", counts)
		}
	})
}

func TestValidateOrderIncomplete(t *testing.T) {
	if _, err := ValidateOrder(RPS, MLC(2), []Page{{0, LSB}}); err == nil {
		t.Error("incomplete order accepted")
	}
}

func TestRuleSetNames(t *testing.T) {
	if FPS.Name() != "FPS" || RPS.Name() != "RPS" || Unconstrained.Name() != "Unconstrained" {
		t.Error("rule set names wrong")
	}
}

func TestRandomUnconstrainedOrderComplete(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		s := Scheme{Levels: levels, WordLines: 10}
		order := RandomUnconstrainedOrder(rng.New(5), s)
		if i, err := ValidateOrder(Unconstrained, s, order); err != nil {
			t.Fatalf("invalid at %d: %v", i, err)
		}
	})
}

// TestCheckAcceptPathAllocatesNothing guards the per-program cost of every
// rule set: deciding a legal program — including FPS's "is this the next
// page of the fixed sequence" — must not allocate at any level count.
func TestCheckAcceptPathAllocatesNothing(t *testing.T) {
	everyLevels(t, func(t *testing.T, levels int) {
		s := Scheme{Levels: levels, WordLines: 16}
		order := FixedOrder(s) // legal under all three rule sets
		for _, rules := range []RuleSet{FPS, RPS, Unconstrained} {
			st := NewBlockState(s)
			allocs := alloctest.Count(20, func() {
				st.Reset()
				for _, p := range order {
					if err := rules.Check(st, p); err != nil {
						t.Fatalf("%s rejects %v: %v", rules.Name(), p, err)
					}
					st.Mark(p)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %d allocations in 20 blocks on the accept path, want 0", rules.Name(), allocs)
			}
		}
	})
}
