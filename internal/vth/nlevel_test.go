package vth

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rng"
	"flexftl/internal/stats"
)

// newEvenModel builds the model of the evenly spaced 2^bits-state cell.
func newEvenModel(t *testing.T, bits, cells int) *Model {
	t.Helper()
	p := EvenParams(bits)
	p.CellsPerWordLine = cells
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewNLevelModelValidation(t *testing.T) {
	p := EvenParams(3)
	p.CellsPerWordLine = 0
	if _, err := NewModel(p); err == nil {
		t.Error("zero cells accepted")
	}
	p = EvenParams(3)
	p.ProgramSigma = 0
	if _, err := NewModel(p); err == nil {
		t.Error("zero sigma accepted")
	}
	p = EvenParams(3)
	p.Cell = EvenCell(3, 1, 1)
	if _, err := NewModel(p); err == nil {
		t.Error("inverted window accepted")
	}
	for _, bits := range []int{0, 1, MaxBits + 1} {
		if _, err := NewModel(EvenParams(bits)); err == nil {
			t.Errorf("%d-bit cell accepted", bits)
		}
	}
}

func TestNLevelRejectsBadOrders(t *testing.T) {
	m := newEvenModel(t, 3, 512)
	s := core.TLC(4)
	if _, err := m.SimulateBlock(s, core.FixedOrder(core.TLC(3)), Fresh, rng.New(1)); err == nil {
		t.Error("short order accepted")
	}
	dup := core.FixedOrder(s)
	dup[1] = dup[0]
	if _, err := m.SimulateBlock(s, dup, Fresh, rng.New(1)); err == nil {
		t.Error("duplicate page accepted")
	}
	bad := core.FixedOrder(s)
	bad[0] = core.Page{WL: 99}
	if _, err := m.SimulateBlock(s, bad, Fresh, rng.New(1)); err == nil {
		t.Error("out-of-range page accepted")
	}
	deep := core.FixedOrder(s)
	deep[len(deep)-1].Type = 3
	if _, err := m.SimulateBlock(s, deep, Fresh, rng.New(1)); err == nil {
		t.Error("page level >= cell bits accepted")
	}
	if _, err := m.SimulateBlock(core.MLC(4), core.FixedOrder(core.MLC(4)), Fresh, rng.New(1)); err == nil {
		t.Error("MLC block on a TLC cell accepted")
	}
	if _, err := m.SimulateBlock(core.Scheme{Levels: 1, WordLines: 2}, nil, Fresh, rng.New(1)); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestGrayDistanceBits(t *testing.T) {
	// Voltage-adjacent states must differ in exactly one data bit for any
	// cell depth, and a misread across several states costs the popcount of
	// the two bit patterns' XOR.
	for _, bits := range []int{2, 3, 4} {
		c := EvenCell(bits, 0, 1)
		for s := 0; s < c.States()-1; s++ {
			if d := c.bitErrors(s, s+1); d != 1 {
				t.Errorf("bits=%d: states %d,%d differ in %d data bits, want 1", bits, s, s+1, d)
			}
		}
		if c.bitErrors(3, 3) != 0 {
			t.Error("identical states differ")
		}
		// 0 and 2 store 0..00 and 0..11: two bits apart.
		if d := c.bitErrors(0, 2); d != 2 {
			t.Errorf("bits=%d: states 0,2 differ in %d data bits, want 2", bits, d)
		}
	}
	// The code is the data that programs a cell into the state: feeding
	// every bit string through the program table lands on the state whose
	// Code is that string, LSB page's bit first.
	c := EvenCell(3, 0, 1)
	for data := 0; data < 8; data++ {
		s := 0
		for d := 0; d < 3; d++ {
			s = int(c.Steps[d].Next[2*s+data>>(2-d)&1])
		}
		if int(c.Code[s]) != data {
			t.Errorf("data %03b programs state %d, whose code is %03b", data, s, c.Code[s])
		}
	}
}

// TestClassifyNearest: thresholding at the midpoint references reads a
// voltage as the nearest final level, whatever the spacing.
func TestClassifyNearest(t *testing.T) {
	p := EvenParams(2)
	p.Cell = EvenCell(2, 0, 3) // levels 0, 1, 2, 3
	p.CellsPerWordLine = 1
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	s, a := core.MLC(1), NewArena()
	for _, c := range []struct {
		v    float64
		want int
	}{{-5, 0}, {0.4, 0}, {0.6, 1}, {2.51, 3}, {99, 3}} {
		// One cell found at v reads error-free exactly when it was meant to
		// be in state c.want.
		for st := 0; st < p.Cell.States(); st++ {
			a.size(s, 1)
			a.vth[0], a.state[0] = c.v, uint8(st)
			res := m.measure(s, 0, 1, Fresh, rng.New(1), a)
			if want := p.Cell.bitErrors(st, c.want); res.TotalErrs != want {
				t.Errorf("v=%v meant for state %d: %d bit errors, want %d (read as state %d)", c.v, st, res.TotalErrs, want, c.want)
			}
		}
	}
}

// TestTLCFreshNearlyErrorFree: legal orders on a fresh TLC block stay below
// the ECC envelope (TLC margins are ~1/2 MLC's, so the bound is looser).
func TestTLCFreshNearlyErrorFree(t *testing.T) {
	m := newEvenModel(t, 3, 512)
	s := core.TLC(16)
	for name, order := range map[string][]core.Page{
		"fixed":  core.FixedOrder(s),
		"3phase": core.RelaxedFullOrder(s),
	} {
		res, err := m.SimulateBlock(s, order, Fresh, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ber := res.BlockBER(); ber > 5e-3 {
			t.Errorf("%s: fresh TLC BER %g too high", name, ber)
		}
	}
}

// TestTLCRelaxedMatchesFixed is the Figure 4 equivalence claim extended to
// TLC: the relaxed 3-phase order's widths and BERs match the vendor
// staircase statistically.
func TestTLCRelaxedMatchesFixed(t *testing.T) {
	m := newEvenModel(t, 3, 512)
	s := core.TLC(32)
	const blocks = 6
	collect := func(order []core.Page, seed uint64) (wp, ber []float64) {
		for b := 0; b < blocks; b++ {
			fresh, err := m.SimulateBlock(s, order, Fresh, rng.New(seed+uint64(b)))
			if err != nil {
				t.Fatal(err)
			}
			wp = append(wp, fresh.WPSums()...)
			worn, err := m.SimulateBlock(s, order, WorstCase, rng.New(seed^uint64(b)+99))
			if err != nil {
				t.Fatal(err)
			}
			ber = append(ber, worn.BERs()...)
		}
		return
	}
	fixedWP, fixedBER := collect(core.FixedOrder(s), 10)
	relWP, relBER := collect(core.RelaxedFullOrder(s), 20)
	if a, b := stats.Mean(relWP), stats.Mean(fixedWP); a > b*1.03 {
		t.Errorf("relaxed TLC mean WPi %.4f above fixed %.4f", a, b)
	}
	if a, b := stats.Mean(relBER), stats.Mean(fixedBER); a > b*1.3 {
		t.Errorf("relaxed TLC mean BER %.3g well above fixed %.3g", a, b)
	}
}

// TestTLCWorstCaseOrderWorse: the forbidden order inflates the width tails,
// exactly as in MLC.
func TestTLCWorstCaseOrderWorse(t *testing.T) {
	m := newEvenModel(t, 3, 2048)
	s := core.TLC(16)
	fixed, err := m.SimulateBlock(s, core.FixedOrder(s), Fresh, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := m.SimulateBlock(s, core.WorstCaseOrder(s), Fresh, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	fb := stats.Summarize(fixed.WPSums())
	bb := stats.Summarize(bad.WPSums())
	if bb.Max < fb.Max*1.05 {
		t.Errorf("worst-case TLC max WPi %.4f not above fixed %.4f", bb.Max, fb.Max)
	}
	if got := core.MaxAggressors(s, core.WorstCaseOrder(s)); got != 6 {
		t.Errorf("worst-case TLC aggressors = %d, want 6 (2 neighbours x 3 pages)", got)
	}
}

// TestNLevelMatchesAggressorAnalysis: the model's aggressor counters agree
// with core's static analysis on every order type.
func TestNLevelMatchesAggressorAnalysis(t *testing.T) {
	m := newEvenModel(t, 3, 512)
	s := core.TLC(8)
	for name, order := range map[string][]core.Page{
		"fixed":  core.FixedOrder(s),
		"3phase": core.RelaxedFullOrder(s),
		"worst":  core.WorstCaseOrder(s),
		"random": core.RandomRPSOrder(rng.New(9), s),
	} {
		res, err := m.SimulateBlock(s, order, Fresh, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		want := core.AggressorCounts(s, order)
		for k, w := range res.WordLines {
			if w.Aggressors != want[k] {
				t.Errorf("%s WL(%d): model %d, analysis %d", name, k, w.Aggressors, want[k])
			}
		}
	}
}

// TestMLCViaNLevelConsistency: the 2-level instantiation behaves like the
// dedicated MLC model in the quantities that matter (zero-ish fresh BER,
// stress raising it, FPS==RPS equivalence).
func TestMLCViaNLevelConsistency(t *testing.T) {
	m := newEvenModel(t, 2, 512)
	s := core.MLC(16)
	fresh, err := m.SimulateBlock(s, core.FixedOrder(s), Fresh, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// The evenly spaced 4-state instantiation has wider margins than the
	// calibrated MLC model, so push the stress far past end of life to see
	// errors at this sample size.
	harsh := StressCondition{PECycles: 10000, RetentionYears: 3}
	worn, err := m.SimulateBlock(s, core.FixedOrder(s), harsh, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.BlockBER() > 1e-3 {
		t.Errorf("fresh MLC-via-nlevel BER %g", fresh.BlockBER())
	}
	if worn.BlockBER() <= fresh.BlockBER() {
		t.Errorf("harsh stress did not raise BER: fresh %g, worn %g", fresh.BlockBER(), worn.BlockBER())
	}
}

// TestTLCWorseThanMLCAtEndOfLife: with the same physics, the 8-state part
// must be less reliable than the 4-state part — the capacity/reliability
// trade the multi-leveling technique makes (Section 1).
func TestTLCWorseThanMLCAtEndOfLife(t *testing.T) {
	mlc, err := newEvenModel(t, 2, 512).SimulateBlock(core.MLC(16), core.FixedOrder(core.MLC(16)), WorstCase, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tlc, err := newEvenModel(t, 3, 512).SimulateBlock(core.TLC(16), core.FixedOrder(core.TLC(16)), WorstCase, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if tlc.BlockBER() <= mlc.BlockBER() {
		t.Errorf("TLC BER %g not above MLC %g at end of life", tlc.BlockBER(), mlc.BlockBER())
	}
}

func TestNLevelResultAccessors(t *testing.T) {
	m := newEvenModel(t, 3, 512)
	s := core.TLC(4)
	res, err := m.SimulateBlock(s, core.FixedOrder(s), WorstCase, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WPSums()) != 4 || len(res.BERs()) != 4 {
		t.Error("per-WL series wrong length")
	}
	if res.TotalBits != 3*512*4 {
		t.Errorf("TotalBits = %d", res.TotalBits)
	}
	if res.Scheme != s {
		t.Errorf("result scheme %v, want %v", res.Scheme, s)
	}
	if (BlockResult{}).BlockBER() != 0 {
		t.Error("empty BlockBER != 0")
	}
}
