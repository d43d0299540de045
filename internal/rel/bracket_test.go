package rel

import (
	"testing"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/vth"
)

// skewed is a valid model whose BER falls with age at first: state 1 sits
// just under its upper reference and charge loss pulls it clear.
func skewed() Model {
	m := Derive(vth.DefaultParams())
	m.Refs[1] = m.Levels[1] + 0.02*(m.Levels[2]-m.Levels[1])
	m.RetentionSigmaPerYear = 0
	return m
}

// TestLadderIsReadOutcome: classifying a sample against the evaluated rungs
// gives ReadOutcome's answer — the two share one walk.
func TestLadderIsReadOutcome(t *testing.T) {
	src := rng.New(3)
	for _, retries := range []int{0, 1, 4, MaxRungs - 2} {
		c := DefaultConfig(1)
		c.MaxRetries = retries
		for _, pe := range []int{0, 3000, 6000, 20000} {
			ber := c.Model.BER(pe, Year/2, 500)
			l := c.Ladder(ber, 4096)
			if len(l.Rungs()) != retries+2 {
				t.Fatalf("retries=%d: %d rungs, want %d", retries, len(l.Rungs()), retries+2)
			}
			samples := append([]float64{0}, l.Rungs()...)
			for i := 0; i < 200; i++ {
				samples = append(samples, src.Float64())
			}
			for _, u := range samples {
				class := 0
				for class < len(l.Rungs()) && u < l.Rungs()[class] {
					class++
				}
				if got, want := outcomeOf(class, retries), c.ReadOutcome(ber, 4096, u); got != want {
					t.Fatalf("retries=%d pe=%d u=%g: ladder class %d -> %+v, ReadOutcome %+v", retries, pe, u, class, got, want)
				}
			}
		}
	}
	c := DefaultConfig(1)
	if l := c.Ladder(0, 4096); len(l.Rungs()) != c.MaxRetries+2 || l.Rungs()[0] != 0 {
		t.Errorf("zero-BER ladder %v, want %d zero rungs", l.Rungs(), c.MaxRetries+2)
	}
}

// TestBERBoundsContainBER: the bounds hold at the corners of a box and at
// random points inside it, on the calibrated surfaces and on one that is not
// monotone in age.
func TestBERBoundsContainBER(t *testing.T) {
	models := map[string]Model{
		"mlc":    Derive(vth.DefaultParams()),
		"tlc":    Derive(vth.EvenParams(3)),
		"skewed": skewed(),
	}
	if m := models["skewed"]; m.Validate() != nil || m.BER(3000, Year/4, 0) >= m.BER(3000, 0, 0) {
		t.Fatal("the skewed model is invalid or monotone in age: it no longer tests anything")
	}
	src := rng.New(9)
	for name, m := range models {
		for i := 0; i < 2000; i++ {
			pe := src.Intn(20000)
			ageLo := sim.Time(src.Int63n(int64(5 * Year)))
			ageHi := ageLo + sim.Time(src.Int63n(int64(Year)))
			readsLo := uint64(src.Int63n(500_000))
			readsHi := readsLo + uint64(src.Int63n(100_000))
			lo, hi := m.BERBounds(pe, ageLo, ageHi, readsLo, readsHi)
			for j := 0; j < 6; j++ {
				age, reads := ageLo, readsLo
				switch j {
				case 0:
				case 1:
					age, reads = ageHi, readsHi
				default:
					age += sim.Time(src.Int63n(int64(ageHi-ageLo) + 1))
					reads += uint64(src.Int63n(int64(readsHi-readsLo) + 1))
				}
				if b := m.BER(pe, age, reads); b < lo*(1-1e-12) || b > hi*(1+1e-12) {
					t.Fatalf("%s pe=%d age=%d reads=%d: BER %g outside [%g, %g] of box age [%d,%d] reads [%d,%d]",
						name, pe, age, reads, b, lo, hi, ageLo, ageHi, readsLo, readsHi)
				}
			}
		}
		if lo, hi := m.BERBounds(3000, Year, Year, 77, 77); lo != hi || lo != m.BER(3000, Year, 77) {
			t.Errorf("%s: bounds of a one-point box [%g, %g] != BER %g", name, lo, hi, m.BER(3000, Year, 77))
		}
	}
}

// TestBracketDecidesOnlyWhatItCanProve covers the three ways a bracket
// declines: inverted ladders, a sample between the two values of a rung, and
// a sample below a ladder longer than MaxRungs.
func TestBracketDecidesOnlyWhatItCanProve(t *testing.T) {
	c := DefaultConfig(1)
	// Swapping the box's ends hands Bracket an upper bound below its lower one.
	inverted := c.Bracket(6000, Year, 0, 1000, 0, 4096)
	for _, u := range []float64{0, 1e-12, 0.3, 0.999999} {
		if o, ok := inverted.ReadOutcome(u); ok {
			t.Errorf("inverted bracket decided u=%g as %+v", u, o)
		}
	}

	b := c.Bracket(6000, 0, Year/12, 0, 5000, 4096)
	loBER, hiBER := c.Model.BERBounds(6000, 0, Year/12, 0, 5000)
	lo, hi := c.Ladder(loBER, 4096), c.Ladder(hiBER, 4096)
	between := (lo.Rungs()[1] + hi.Rungs()[1]) / 2
	if !(lo.Rungs()[1] < between && between < hi.Rungs()[1]) {
		t.Fatalf("a month of retention at 6000 P/E should move the fast-path rung: %g .. %g", lo.Rungs()[1], hi.Rungs()[1])
	}
	if o, ok := b.ReadOutcome(between); ok {
		t.Errorf("sample between the two values of rung 1 decided as %+v", o)
	}
	for _, u := range []float64{hi.Rungs()[1] * 1.001, lo.Rungs()[1] * 0.999} {
		o, ok := b.ReadOutcome(u)
		if want := c.ReadOutcome(c.Model.BER(6000, Year/24, 2500), 4096, u); !ok || o != want {
			t.Errorf("u=%g: bracket (%+v, %v), exact %+v", u, o, ok, want)
		}
	}

	deep := DefaultConfig(1)
	deep.MaxRetries = MaxRungs
	db := deep.Bracket(3000, Year, Year, 0, 0, 4096)
	if o, ok := db.ReadOutcome(0.5); !ok || o != deep.ReadOutcome(deep.Model.BER(3000, Year, 0), 4096, 0.5) {
		t.Errorf("deep ladder, large sample: (%+v, %v)", o, ok)
	}
	if o, ok := db.ReadOutcome(0); ok {
		t.Errorf("sample below all %d stored rungs of a %d-rung ladder decided as %+v", MaxRungs, deep.MaxRetries+2, o)
	}
}
