package vth

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rng"
	"flexftl/internal/stats"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	p := DefaultParams()
	p.CellsPerWordLine = 512 // keep unit tests fast
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStateCoding(t *testing.T) {
	// Figure 1's Gray coding, LSB page's bit first.
	mlc := Fig1Cell()
	for s, want := range []string{"E(11)", "P1(01)", "P2(00)", "P3(10)"} {
		if got := mlc.StateName(s); got != want {
			t.Errorf("StateName(%d) = %q, want %q", s, got, want)
		}
	}
	if got := mlc.StateName(9); got != "State(9)" {
		t.Errorf("out-of-range StateName = %q", got)
	}
	// The code follows from the program table: a final state stores the
	// bits that programmed a cell into it.
	for lsb := 0; lsb < 2; lsb++ {
		for msb := 0; msb < 2; msb++ {
			s := mlc.Steps[1].Next[2*int(mlc.Steps[0].Next[lsb])+msb]
			if got := int(mlc.Code[s]); got != lsb<<1|msb {
				t.Errorf("lsb %d msb %d programs %s", lsb, msb, mlc.StateName(int(s)))
			}
		}
	}
	// Adjacent states differ in exactly one bit (Gray property) — this is
	// why a single-level misread costs one bit error, not two.
	for s := 0; s < mlc.States()-1; s++ {
		if diff := mlc.bitErrors(s, s+1); diff != 1 {
			t.Errorf("states %s and %s differ in %d bits, want 1", mlc.StateName(s), mlc.StateName(s+1), diff)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	p := DefaultParams()
	p.CellsPerWordLine = 0
	if _, err := NewModel(p); err == nil {
		t.Error("zero cells accepted")
	}
	p = DefaultParams()
	p.ProgramSigma = 0
	if _, err := NewModel(p); err == nil {
		t.Error("zero sigma accepted")
	}
	p = DefaultParams()
	p.Cell.Steps[1].Level = [MaxStates]float64{0, 0, 1, 2}
	if _, err := NewModel(p); err == nil {
		t.Error("non-increasing levels accepted")
	}
	p = DefaultParams()
	p.Cell.Steps[0].Next[0] = 2
	if _, err := NewModel(p); err == nil {
		t.Error("LSB step reaching a third state accepted")
	}
}

func TestReadReferencesBetweenLevels(t *testing.T) {
	for _, c := range []Cell{Fig1Cell(), EvenParams(3).Cell} {
		levels, refs := c.Levels(), c.ReadReferences()
		if len(levels) != c.States() || len(refs) != c.States()-1 {
			t.Fatalf("%d-bit cell: %d levels, %d refs", c.Bits, len(levels), len(refs))
		}
		for i, ref := range refs {
			if ref <= levels[i] || ref >= levels[i+1] {
				t.Errorf("ref %d (%v) not between levels %v and %v", i, ref, levels[i], levels[i+1])
			}
		}
	}
	if (Cell{Bits: 9}).Levels() != nil || (Cell{}).ReadReferences() != nil {
		t.Error("out-of-range cell has levels")
	}
}

func TestFreshBlockNearlyErrorFree(t *testing.T) {
	// A fresh block programmed under any legal order must read back with a
	// raw BER far below the ECC correction point (~1e-3); tiny residual
	// error rates from the interference tail are physical.
	m := newModel(t)
	const wl = 16
	for name, order := range map[string][]core.Page{
		"FPS":     core.FPSOrder(wl),
		"RPSfull": core.RPSFullOrder(wl),
		"RPShalf": core.RPSHalfOrder(wl),
	} {
		res, err := m.SimulateBlock(core.MLC(wl), order, Fresh, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ber := res.BlockBER(); ber > 5e-4 {
			t.Errorf("%s: fresh block BER = %g, want < 5e-4", name, ber)
		}
	}
}

// badOrder is a malformed input the simulator must answer with an error:
// a block shape and an order for the MLC model.
type badOrder struct {
	name  string
	s     core.Scheme
	order []core.Page
}

func badOrders() []badOrder {
	dup := core.RPSFullOrder(4)
	dup[1] = dup[0]
	farWL := core.RPSFullOrder(4)
	farWL[0] = core.Page{WL: 99, Type: core.LSB}
	// A page level the 2-bit cell does not have, in an order of the right
	// length: this used to panic in core.BlockState.Mark.
	deepPage := core.RPSFullOrder(4)
	deepPage[7] = core.Page{WL: 3, Type: core.MSB + 1}
	return []badOrder{
		{"short order", core.MLC(4), core.FPSOrder(3)},
		{"duplicate page", core.MLC(4), dup},
		{"out-of-range word line", core.MLC(4), farWL},
		{"page level >= cell bits", core.MLC(4), deepPage},
		{"scheme levels != cell bits", core.TLC(4), core.FixedOrder(core.TLC(4))},
		{"invalid scheme", core.Scheme{Levels: 2}, nil},
	}
}

func TestSimulateBlockRejectsBadOrders(t *testing.T) {
	m := newModel(t)
	for _, c := range badOrders() {
		if _, err := m.SimulateBlock(c.s, c.order, Fresh, rng.New(1)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestFig4aEquivalence is the heart of the Figure 4(a) reproduction: the WPi
// width sums under RPSfull and RPShalf must not exceed FPS (statistically).
func TestFig4aEquivalence(t *testing.T) {
	m := newModel(t)
	const wl = 32
	const blocks = 8
	collect := func(order []core.Page, seed uint64) []float64 {
		var all []float64
		for b := 0; b < blocks; b++ {
			res, err := m.SimulateBlock(core.MLC(wl), order, Fresh, rng.New(seed+uint64(b)))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, res.WPSums()...)
		}
		return all
	}
	fps := stats.Mean(collect(core.FPSOrder(wl), 100))
	rpsFull := stats.Mean(collect(core.RPSFullOrder(wl), 200))
	rpsHalf := stats.Mean(collect(core.RPSHalfOrder(wl), 300))
	// Allow 3% statistical slack: the paper's claim is "not increased".
	if rpsFull > fps*1.03 {
		t.Errorf("RPSfull mean WPi %.4f > FPS %.4f", rpsFull, fps)
	}
	if rpsHalf > fps*1.03 {
		t.Errorf("RPShalf mean WPi %.4f > FPS %.4f", rpsHalf, fps)
	}
}

// TestWorstCaseOrderWidensDistributions reproduces the Figure 2(a) failure
// mode quantitatively: four late aggressors widen WPi well beyond FPS.
func TestWorstCaseOrderWidensDistributions(t *testing.T) {
	// Max-min widths need a decent cell population to resolve tails.
	p := DefaultParams()
	p.CellsPerWordLine = 4096
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	const wl = 32
	fpsRes, err := m.SimulateBlock(core.MLC(wl), core.FPSOrder(wl), Fresh, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	badRes, err := m.SimulateBlock(core.MLC(wl), core.WorstCaseOrder(core.MLC(wl)), Fresh, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Interference is one-sided, so the damage shows in the upper tail: the
	// widest word lines under the unconstrained order must be clearly wider
	// than anything FPS produces.
	fpsBox := stats.Summarize(fpsRes.WPSums())
	badBox := stats.Summarize(badRes.WPSums())
	if badBox.Max < fpsBox.Max*1.08 {
		t.Errorf("worst-case max WPi %.4f not clearly above FPS max %.4f", badBox.Max, fpsBox.Max)
	}
	// The 4-aggressor word lines as a group must be wider than FPS's mean.
	var fourWP []float64
	for _, w := range badRes.WordLines {
		if w.Aggressors == 4 {
			fourWP = append(fourWP, w.WPSum)
		}
	}
	if len(fourWP) == 0 {
		t.Fatal("no word line saw 4 aggressors under the worst-case order")
	}
	if got, want := stats.Mean(fourWP), stats.Mean(fpsRes.WPSums()); got < want*1.08 {
		t.Errorf("4-aggressor mean WPi %.4f not clearly above FPS mean %.4f", got, want)
	}
	// Under end-of-life stress the unconstrained order must also lose more
	// bits than FPS — the Figure 2(a) data-loss scenario.
	fpsWorn, err := m.SimulateBlock(core.MLC(wl), core.FPSOrder(wl), WorstCase, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	badWorn, err := m.SimulateBlock(core.MLC(wl), core.WorstCaseOrder(core.MLC(wl)), WorstCase, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if badWorn.BlockBER() < fpsWorn.BlockBER()*1.2 {
		t.Errorf("worst-case stressed BER %g not clearly above FPS %g",
			badWorn.BlockBER(), fpsWorn.BlockBER())
	}
}

func TestAggressorCountsMatchCoreAnalysis(t *testing.T) {
	m := newModel(t)
	const wl = 16
	for name, order := range map[string][]core.Page{
		"FPS":     core.FPSOrder(wl),
		"RPSfull": core.RPSFullOrder(wl),
		"worst":   core.WorstCaseOrder(core.MLC(wl)),
	} {
		res, err := m.SimulateBlock(core.MLC(wl), order, Fresh, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		want := core.AggressorCounts(core.MLC(wl), order)
		for k, w := range res.WordLines {
			if w.Aggressors != want[k] {
				t.Errorf("%s WL(%d): model aggressors %d, core analysis %d", name, k, w.Aggressors, want[k])
			}
		}
	}
}

// TestFig4bStressRaisesBER: at 3K P/E + 1-year retention the BER must land
// in a plausible end-of-life decade and stay comparable between FPS and RPS.
func TestFig4bStressRaisesBER(t *testing.T) {
	m := newModel(t)
	const wl = 32
	fresh, err := m.SimulateBlock(core.MLC(wl), core.FPSOrder(wl), Fresh, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	worn, err := m.SimulateBlock(core.MLC(wl), core.FPSOrder(wl), WorstCase, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if worn.BlockBER() <= fresh.BlockBER() {
		t.Errorf("stress did not raise BER: fresh %g, worn %g", fresh.BlockBER(), worn.BlockBER())
	}
	if ber := worn.BlockBER(); ber < 1e-5 || ber > 5e-2 {
		t.Errorf("worst-case BER %g outside the plausible end-of-life decade", ber)
	}
	rps, err := m.SimulateBlock(core.MLC(wl), core.RPSFullOrder(wl), WorstCase, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if rps.BlockBER() > worn.BlockBER()*1.35 {
		t.Errorf("RPS BER %g well above FPS BER %g under stress", rps.BlockBER(), worn.BlockBER())
	}
}

func TestBlockResultAccessors(t *testing.T) {
	m := newModel(t)
	const wl = 8
	res, err := m.SimulateBlock(core.MLC(wl), core.FPSOrder(wl), WorstCase, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WPSums()) != wl || len(res.BERs()) != wl {
		t.Error("per-WL series have wrong length")
	}
	if res.TotalBits != wl*2*512 {
		t.Errorf("TotalBits = %d", res.TotalBits)
	}
	empty := BlockResult{}
	if empty.BlockBER() != 0 {
		t.Error("empty BlockBER != 0")
	}
}

func TestSampleWordLine(t *testing.T) {
	m := newModel(t)
	const wl = 8
	sample, err := m.SampleWordLine(core.MLC(wl), core.FPSOrder(wl), wl/2, Fresh, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Params().Cell
	for st, level := range cell.Levels() {
		vals := sample.State(st)
		if len(vals) == 0 {
			t.Errorf("%s sampled no cells", cell.StateName(st))
			continue
		}
		// Fresh distributions sit near their nominal levels.
		mean := stats.Mean(vals)
		if mean < level-0.5 || mean > level+0.5 {
			t.Errorf("%s mean %.2f far from level %.2f", cell.StateName(st), mean, level)
		}
	}
	if total := sample.Total(); total != m.Params().CellsPerWordLine {
		t.Errorf("sampled %d cells, want %d", total, m.Params().CellsPerWordLine)
	}
	if got := sample.State(99); got != nil {
		t.Errorf("out-of-range state returned %d values", len(got))
	}
	if _, err := m.SampleWordLine(core.MLC(wl), core.FPSOrder(wl), 99, Fresh, rng.New(1)); err == nil {
		t.Error("out-of-range word line accepted")
	}
	if _, err := m.SampleWordLine(core.MLC(wl), core.FPSOrder(4), 0, Fresh, rng.New(1)); err == nil {
		t.Error("short order accepted")
	}
}

func TestSampleWordLineStressWidens(t *testing.T) {
	m := newModel(t)
	const wl = 8
	fresh, err := m.SampleWordLine(core.MLC(wl), core.FPSOrder(wl), 4, Fresh, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	worn, err := m.SampleWordLine(core.MLC(wl), core.FPSOrder(wl), 4, WorstCase, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// The P3 (highest) state's spread must grow under stress.
	if f, w := stats.StdDev(fresh.State(3)), stats.StdDev(worn.State(3)); w <= f {
		t.Errorf("stress did not widen P3: fresh sd %.3f, worn %.3f", f, w)
	}
}

func TestDeterminism(t *testing.T) {
	m := newModel(t)
	const wl = 8
	a, err := m.SimulateBlock(core.MLC(wl), core.RPSFullOrder(wl), WorstCase, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.SimulateBlock(core.MLC(wl), core.RPSFullOrder(wl), WorstCase, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.WordLines {
		if a.WordLines[k] != b.WordLines[k] {
			t.Fatalf("same seed diverged at WL %d", k)
		}
	}
}
