package core

import (
	"fmt"
	"testing"
)

// visitOrders calls visit with every complete program order of the scheme
// that the rule set admits, by depth-first search over LegalNext. The order
// slice is reused between calls.
func visitOrders(rules RuleSet, scheme Scheme, visit func(order []Page)) {
	s := NewBlockState(scheme)
	order := make([]Page, 0, scheme.Pages())
	var rec func()
	rec = func() {
		if s.Full() {
			visit(order)
			return
		}
		for _, p := range LegalNext(rules, s) {
			s.Mark(p)
			order = append(order, p)
			rec()
			order = order[:len(order)-1]
			s.unmark(p)
		}
	}
	rec()
}

// TestRPSSafeOnEveryOrder checks the paper's sufficiency claim over the whole
// legal set rather than on samples: every order RPS admits keeps each word
// line's interference at the fixed sequence's level, at most one aggressor
// program after its finest page — for MLC up to 9 word lines, TLC up to 5
// and QLC up to 4 (TestRPSAdmitsManyOrders pins how many orders that is).
func TestRPSSafeOnEveryOrder(t *testing.T) {
	// The visitor is exhaustive and the bound can fail: with no rules, the
	// 6! orders of MLC(3) include some that break it.
	n, worst := 0, 0
	visitOrders(Unconstrained, MLC(3), func(order []Page) {
		n, worst = n+1, max(worst, MaxAggressors(MLC(3), order))
	})
	if n != 720 || worst <= 1 {
		t.Fatalf("unconstrained MLC(3): %d orders, worst %d aggressors; want 720 and > 1", n, worst)
	}
	for _, c := range []struct{ levels, maxWL int }{{2, 9}, {3, 5}, {4, 4}} {
		for wl := 1; wl <= c.maxWL; wl++ {
			s := Scheme{Levels: c.levels, WordLines: wl}
			t.Run(fmt.Sprintf("levels=%d/wordlines=%d", c.levels, wl), func(t *testing.T) {
				n := 0
				visitOrders(RPS, s, func(order []Page) {
					n++
					if got := MaxAggressors(s, order); got > 1 && !t.Failed() {
						t.Errorf("legal order %v has a word line with %d aggressors", order, got)
					}
				})
				if want := CountOrders(RPS, s); n != want {
					t.Errorf("visited %d orders, RPS admits %d", n, want)
				}
			})
		}
	}
}
