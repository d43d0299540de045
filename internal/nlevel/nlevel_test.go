package nlevel

// The formalism's own tests are internal/core's, which run every rule at
// Levels 2, 3 and 4. What is here pins, under the names this package's tests
// always had, that the names bench/ imports resolve to that implementation.
// Delete with the package.

import (
	"errors"
	"fmt"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rng"
)

var tlc, qlc = Scheme{Levels: 3, WordLines: 8}, Scheme{Levels: 4, WordLines: 8}

func TestSchemeValidate(t *testing.T) {
	if tlc != core.TLC(8) || tlc.Validate() != nil || tlc.Pages() != 24 {
		t.Errorf("Scheme is not core.Scheme: %+v", tlc)
	}
	if (Scheme{Levels: 1, WordLines: 4}).Validate() == nil || (Scheme{Levels: 2}).Validate() == nil {
		t.Error("degenerate scheme accepted")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for idx, p := range RelaxedFullOrder(tlc) {
		if p.Index(tlc.WordLines) != idx || core.PageFromIndex(idx, tlc.WordLines) != p {
			t.Fatalf("page %d of the 3-phase order is %v, index %d", idx, p, p.Index(tlc.WordLines))
		}
	}
}

func TestStateBasics(t *testing.T) {
	st := core.NewBlockState(tlc)
	p := Page{WL: 0, Type: core.LSB}
	st.Mark(p)
	if !st.Written(p) || st.Programmed() != 1 || st.Written(Page{WL: 0, Type: 3}) {
		t.Error("block state does not track an nlevel.Page")
	}
}

func TestMarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("marking a level the scheme lacks did not panic")
		}
	}()
	core.NewBlockState(tlc).Mark(Page{WL: 0, Type: 3})
}

// TestMLCEquivalence: at two levels the shim's order is the paper's RPSfull.
func TestMLCEquivalence(t *testing.T) {
	got, want := RelaxedFullOrder(Scheme{Levels: 2, WordLines: 8}), core.RPSFullOrder(8)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("RelaxedFullOrder(MLC) = %v, RPSfull = %v", got, want)
	}
}

func TestTLCFixedOrderLegalUnderRelaxed(t *testing.T) {
	for _, s := range []Scheme{tlc, qlc} {
		if i, err := core.ValidateOrder(core.RPS, s, core.FixedOrder(s)); err != nil {
			t.Errorf("%d levels: fixed order illegal under RPS at %d: %v", s.Levels, i, err)
		}
	}
}

func TestTLCRelaxedFullOrder(t *testing.T) {
	for _, s := range []Scheme{tlc, qlc} {
		order := RelaxedFullOrder(s)
		if i, err := core.ValidateOrder(core.RPS, s, order); err != nil {
			t.Fatalf("%d-phase order illegal at %d: %v", s.Levels, i, err)
		}
		var cv *core.ConstraintViolation
		if _, err := core.ValidateOrder(core.FPS, s, order); !errors.As(err, &cv) || cv.Constraint != 4 {
			t.Errorf("%d-phase order under FPS: %v, want Constraint 4", s.Levels, err)
		}
	}
}

func TestCheckRelaxedViolations(t *testing.T) {
	st := core.NewBlockState(tlc)
	var cv *core.ConstraintViolation
	for p, constraint := range map[Page]int{{WL: 1, Type: 0}: 1, {WL: 0, Type: 1}: 3, {WL: 0, Type: 2}: 3} {
		if err := core.RPS.Check(st, p); !errors.As(err, &cv) || cv.Constraint != constraint {
			t.Errorf("%v on an erased block: %v, want Constraint %d", p, err, constraint)
		}
	}
}

func TestViolationError(t *testing.T) {
	v := &core.ConstraintViolation{Constraint: 3, Page: Page{WL: 0, Type: 2}, Missing: Page{WL: 1, Type: 1}}
	if got, want := v.Error(), "core: programming T2(0) violates Constraint 3: MSB(1) not yet written"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

func TestShieldingBoundsAggressors(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s := Scheme{Levels: 3 + int(seed%2), WordLines: 2 + int(seed%7)}
		if got := core.MaxAggressors(s, core.RandomRPSOrder(rng.New(seed), s)); got > 1 {
			t.Fatalf("seed %d: %d late aggressors under RPS at %d levels", seed, got, s.Levels)
		}
	}
}

func TestFixedOrderAggressorsAlsoBounded(t *testing.T) {
	for _, s := range []Scheme{tlc, qlc} {
		if got := core.MaxAggressors(s, core.FixedOrder(s)); got > 1 {
			t.Errorf("%d-level fixed order max aggressors = %d", s.Levels, got)
		}
	}
}

func TestWorstCaseOrderAggressors(t *testing.T) {
	for _, s := range []Scheme{tlc, qlc} {
		if got := core.MaxAggressors(s, core.WorstCaseOrder(s)); got != 2*s.Levels {
			t.Errorf("%d-level worst-case max aggressors = %d, want %d", s.Levels, got, 2*s.Levels)
		}
	}
}

func TestAggressorCountsPartial(t *testing.T) {
	if counts := core.AggressorCounts(Scheme{Levels: 3, WordLines: 2}, []Page{{WL: 0}}); counts[0] != -1 || counts[1] != -1 {
		t.Errorf("counts = %v, want [-1 -1]", counts)
	}
}

func TestTLCRelaxedAdmitsManyOrders(t *testing.T) {
	if a, b := core.CountOrders(core.RPS, core.TLC(3)), core.CountOrders(core.RPS, core.TLC(4)); a != 4 || b != 29 {
		t.Errorf("TLC RPS order counts = %d, %d, want 4, 29", a, b)
	}
}

func TestRandomRelaxedOrderComplete(t *testing.T) {
	order := core.RandomRPSOrder(rng.New(9), qlc)
	seen := map[Page]bool{}
	for _, p := range order {
		seen[p] = true
	}
	if len(order) != qlc.Pages() || len(seen) != qlc.Pages() {
		t.Errorf("random order covers %d distinct of %d pages", len(seen), qlc.Pages())
	}
}
