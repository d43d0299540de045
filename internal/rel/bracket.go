package rel

import "flexftl/internal/sim"

// MaxRungs is how many rungs a Ladder holds. A configuration with more than
// MaxRungs-2 retry rounds gets its first MaxRungs rungs; a sample below all
// of them is decided by ReadOutcome.
const MaxRungs = 8

// Ladder is the thresholds ReadOutcome compares a sample against at one BER,
// all evaluated: the eager form of the walk ReadOutcome does lazily.
type Ladder struct {
	rung [MaxRungs]float64
	n    int
}

// Ladder evaluates the first min(MaxRetries+2, MaxRungs) rungs at ber. At a
// BER of zero every rung is zero, so every sample is clean.
func (c *Config) Ladder(ber float64, pageBytes int) Ladder {
	l := Ladder{n: min(c.MaxRetries+2, MaxRungs)}
	if ber <= 0 {
		return l
	}
	w := c.walk(ber, pageBytes)
	for i := 0; i < l.n; i++ {
		l.rung[i] = w.next()
	}
	return l
}

// Rungs returns the evaluated thresholds, first rung first.
func (l *Ladder) Rungs() []float64 { return l.rung[:l.n] }

// The guard band absorbs what floating point does to the monotonicity the
// bracket rests on: a rung evaluated inside the box may fall outside its two
// bounds by rounding (log-space binomial tails, the switch between
// the upper- and lower-tail sums), never by more than a few 1e-11 relative.
// Samples are multiples of 2^-53, so the absolute term only matters to a
// sample of exactly zero against a rung at the edge of underflow.
const (
	guardRel = 1e-9
	guardAbs = 0x1p-54
)

// Bracket decides read outcomes for a whole box of stress — one erase count,
// a range of retention ages, a range of read counts — from two ladders: one
// at a lower bound of the BER over the box, one at an upper bound. Every rung
// is non-decreasing in BER (a binomial tail grows with its p), so a rung
// anywhere in the box lies between its values on the two ladders. A sample
// that is below rungs 0..k-1 of the low ladder and not below rung k of the
// high one is therefore below rungs 0..k-1 and not below rung k everywhere in
// the box: its class is k, exactly. A sample that falls between the two
// values of some rung is not decided here.
type Bracket struct {
	// lo and hi are the two ladders' rungs moved apart by the guard band.
	lo, hi     [MaxRungs]float64
	n          int
	maxRetries int
}

// Bracket builds the bracket for reads of blocks erased peCycles times, with
// retention age in [ageLo, ageHi] and read count in [readsLo, readsHi]. If
// the two ladders come out inverted on any rung the bracket decides nothing.
func (c *Config) Bracket(peCycles int, ageLo, ageHi sim.Time, readsLo, readsHi uint64, pageBytes int) Bracket {
	berLo, berHi := c.Model.BERBounds(peCycles, ageLo, ageHi, readsLo, readsHi)
	lo, hi := c.Ladder(berLo, pageBytes), c.Ladder(berHi, pageBytes)
	b := Bracket{n: lo.n, maxRetries: c.MaxRetries}
	for i := 0; i < b.n; i++ {
		if lo.rung[i] > hi.rung[i] {
			return Bracket{}
		}
		b.lo[i] = max(lo.rung[i]*(1-guardRel)-guardAbs, 0)
		b.hi[i] = hi.rung[i]*(1+guardRel) + guardAbs
	}
	return b
}

// ReadOutcome returns the outcome of a read inside the bracket's box with
// sample u, and whether the bracket decides it. When it does, the outcome is
// the one Config.ReadOutcome returns at the read's own BER.
func (b *Bracket) ReadOutcome(u float64) (Outcome, bool) {
	for class := 0; class < b.n; class++ {
		if u >= b.hi[class] {
			return outcomeOf(class, b.maxRetries), true
		}
		if u >= b.lo[class] {
			return Outcome{}, false
		}
	}
	// Below every stored rung: uncorrectable if these are all the rungs.
	if b.n == b.maxRetries+2 {
		return outcomeOf(b.n, b.maxRetries), true
	}
	return Outcome{}, false
}
