// Package rel closes the loop between the vth reliability study and the
// running FTL: it derives a cheap, closed-form per-page bit-error-rate model
// from the calibrated Monte-Carlo parameters, and turns each device read
// into a deterministic ECC outcome — clean, corrected (possibly after
// read-retry rounds that cost real latency), or uncorrectable.
//
// The model is the Gaussian boundary-crossing approximation of the vth
// simulation: each state is a normal distribution around its (retention-
// shifted) nominal level whose spread widens with P/E cycling, retention
// age, and read disturb; a bit error is a tail crossing of an adjacent read
// reference, flipping exactly one Gray-coded bit. That keeps a read's BER to
// a handful of erfc evaluations — cheap enough to run on every simulated
// read — while tracking the same stress axes the Monte-Carlo model was
// calibrated on (DefaultParams: fresh blocks read back near-error-free, the
// paper's 3K-P/E + 1-year worst case lands in the 1e-4..1e-2 decade).
//
// Outcomes are a pure function of (seed, chip, block, page, per-block read
// count), so serial and epoch-sharded runs see identical results without any
// barrier replay: all inputs are chip-local and advance in per-chip op
// order.
package rel

import (
	"errors"
	"fmt"
	"math"

	"flexftl/internal/ecc"
	"flexftl/internal/sim"
	"flexftl/internal/vth"
)

// ErrUncorrectable reports a read whose bit errors exceeded the ECC budget
// after every retry round. It is deliberately distinct from the devices'
// power-loss corruption sentinels: a crash-destroyed page and a worn-out
// page are different failures with different recovery stories, and the crash
// campaign's invariants must not absorb model-induced ECC failures.
var ErrUncorrectable = errors.New("rel: uncorrectable page (ECC budget exceeded after retries)")

// Year is one year of virtual time, the natural unit of retention age.
const Year = 365 * 24 * 3600 * sim.Second

// Model is the closed-form BER surface. Levels holds the nominal state
// placements in ascending Vth order; Refs the read references between them
// (len(Levels)-1 boundaries).
type Model struct {
	Levels []float64
	Refs   []float64
	// BitsPerCell is the cell density (2 = MLC); with Gray coding an
	// adjacent-state misread flips exactly one of the cell's bits.
	BitsPerCell int
	// ProgramSigma is the fresh program placement spread.
	ProgramSigma float64
	// WearSigmaPerKCycle widens every state per 1000 P/E cycles.
	WearSigmaPerKCycle float64
	// RetentionShiftPerYear moves programmed states down per year of
	// retention, scaled by how high the state sits (charge loss).
	RetentionShiftPerYear float64
	// RetentionSigmaPerYear adds spread per year of retention.
	RetentionSigmaPerYear float64
	// ReadDisturbSigmaPerKRead widens every state per 1000 reads of the
	// block since its last erase (pass-through stress on unselected word
	// lines). The Monte-Carlo model has no read-disturb axis, so Derive
	// supplies DefaultReadDisturbSigmaPerKRead.
	ReadDisturbSigmaPerKRead float64
}

// DefaultReadDisturbSigmaPerKRead is the read-disturb widening used when the
// source parameter set carries no read-disturb constant: mild enough that
// ordinary workloads never notice, strong enough that a read-disturb storm
// (hundreds of thousands of reads of one block) measurably degrades it.
const DefaultReadDisturbSigmaPerKRead = 0.002

// Derive builds the closed-form surface of the cell the Monte-Carlo
// parameters describe: its final levels, the read references at their
// midpoints, its bit count, and the shared spread and shift constants.
func Derive(p vth.Params) Model {
	return Model{
		Levels:                   p.Cell.Levels(),
		Refs:                     p.Cell.ReadReferences(),
		BitsPerCell:              p.Cell.Bits,
		ProgramSigma:             p.ProgramSigma,
		WearSigmaPerKCycle:       p.WearSigmaPerKCycle,
		RetentionShiftPerYear:    p.RetentionShiftPerYear,
		RetentionSigmaPerYear:    p.RetentionSigmaPerYear,
		ReadDisturbSigmaPerKRead: DefaultReadDisturbSigmaPerKRead,
	}
}

// Validate rejects unusable models.
func (m Model) Validate() error {
	if len(m.Levels) < 2 || len(m.Refs) != len(m.Levels)-1 {
		return fmt.Errorf("rel: model needs >=2 levels and len(levels)-1 refs, got %d/%d", len(m.Levels), len(m.Refs))
	}
	if m.BitsPerCell < 1 {
		return fmt.Errorf("rel: bits per cell %d < 1", m.BitsPerCell)
	}
	if m.ProgramSigma <= 0 {
		return fmt.Errorf("rel: program sigma %g must be positive", m.ProgramSigma)
	}
	for i := range m.Refs {
		if !(m.Levels[i] < m.Refs[i] && m.Refs[i] < m.Levels[i+1]) {
			return fmt.Errorf("rel: ref %d (%g) outside (%g,%g)", i, m.Refs[i], m.Levels[i], m.Levels[i+1])
		}
	}
	return nil
}

// qfunc is the Gaussian upper-tail probability Q(x) = P(N(0,1) > x).
func qfunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// stress reduces the three stress axes to the two quantities they act
// through: the spread of every state and the downward shift of the top one.
// The spread is non-decreasing in each axis; the shift is linear in age.
func (m Model) stress(peCycles int, age sim.Time, reads uint64) (sigma, shift float64) {
	years := float64(age) / float64(Year)
	if years < 0 {
		years = 0
	}
	wear := m.WearSigmaPerKCycle * float64(peCycles) / 1000
	ret := m.RetentionSigmaPerYear * years
	rd := m.ReadDisturbSigmaPerKRead * float64(reads) / 1000
	sigma = math.Sqrt(m.ProgramSigma*m.ProgramSigma + wear*wear + ret*ret + rd*rd)
	return sigma, m.RetentionShiftPerYear * years
}

// crossings sums the boundary-crossing tails into a bit error rate. A state
// still on its own side of a reference spreads by sigmaNear, one that has
// drifted across it by sigmaFar; crossings of the reference below a state use
// shiftBelow, of the one above it shiftAbove. With sigmaNear == sigmaFar and
// shiftBelow == shiftAbove this is the surface at one point (BER); the four
// split so that BERBounds can push every term the same way at once.
func (m Model) crossings(sigmaNear, sigmaFar, shiftBelow, shiftAbove float64) float64 {
	tail := func(margin float64) float64 {
		if margin < 0 {
			return qfunc(margin / sigmaFar)
		}
		return qfunc(margin / sigmaNear)
	}
	top := float64(len(m.Levels) - 1)
	sum := 0.0
	for s := range m.Levels {
		// Charge loss scales with how much charge the state holds.
		if s > 0 {
			mu := m.Levels[s] - shiftBelow*float64(s)/top
			sum += tail(mu - m.Refs[s-1])
		}
		if s < len(m.Levels)-1 {
			mu := m.Levels[s] - shiftAbove*float64(s)/top
			sum += tail(m.Refs[s] - mu)
		}
	}
	// States are equiprobable under random data; each boundary crossing
	// flips one of the cell's BitsPerCell Gray-coded bits.
	ber := sum / float64(len(m.Levels)*m.BitsPerCell)
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// BER returns the predicted raw bit error rate of a page programmed
// age ago on a block with the given P/E cycle count and post-erase read
// count. With the calibrated parameters it is monotone in all three stress
// axes; the functional form alone does not make it so (a state sitting just
// under its upper reference reads better while charge loss pulls it clear).
func (m Model) BER(peCycles int, age sim.Time, reads uint64) float64 {
	sigma, shift := m.stress(peCycles, age, reads)
	return m.crossings(sigma, sigma, shift, shift)
}

// BERBounds returns a lower and an upper bound of BER over the box of ages
// [ageLo, ageHi] and read counts [readsLo, readsHi] at one P/E cycle count.
// It assumes nothing about the surface's shape: each crossing tail is pushed
// to its extreme over the box separately — a wider spread raises a tail whose
// state is on its own side of the reference and lowers one that has crossed,
// a larger shift raises the tails below a state and lowers those above it.
func (m Model) BERBounds(peCycles int, ageLo, ageHi sim.Time, readsLo, readsHi uint64) (lo, hi float64) {
	sigmaLo, shiftA := m.stress(peCycles, ageLo, readsLo)
	sigmaHi, shiftB := m.stress(peCycles, ageHi, readsHi)
	shiftLo, shiftHi := min(shiftA, shiftB), max(shiftA, shiftB)
	return m.crossings(sigmaLo, sigmaHi, shiftLo, shiftHi), m.crossings(sigmaHi, sigmaLo, shiftHi, shiftLo)
}

// Config enables the reliability model on a device.
type Config struct {
	// Model is the BER surface.
	Model Model
	// Code is the controller's ECC envelope, applied per page.
	Code ecc.Code
	// FastCorrectableBits is the hard-decision first-pass correction
	// strength: error counts beyond it (but within Code.CorrectableBits)
	// engage read-retry rounds with progressively finer sensing. It must be
	// at most Code.CorrectableBits.
	FastCorrectableBits int
	// MaxRetries bounds the retry ladder; a page still failing the full
	// code after MaxRetries rounds is uncorrectable.
	MaxRetries int
	// RetryBERScale is the effective-BER reduction per retry round
	// (threshold recalibration), in (0,1).
	RetryBERScale float64
	// Seed makes outcomes deterministic per device.
	Seed uint64
}

// DefaultConfig pairs the MLC model with the default 40-bit/1KB code: a
// 20-bit fast path, four retry rounds at 0.7x effective BER each.
func DefaultConfig(seed uint64) Config {
	return Config{
		Model:               Derive(vth.DefaultParams()),
		Code:                ecc.Default40BitPer1K(),
		FastCorrectableBits: 20,
		MaxRetries:          4,
		RetryBERScale:       0.7,
		Seed:                seed,
	}
}

// Validate is the construction seam that keeps degenerate ECC configurations
// out of the devices: it is the one place ecc.Code.Validate is enforced
// before use.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Code.Validate(); err != nil {
		return err
	}
	if c.FastCorrectableBits < 0 || c.FastCorrectableBits > c.Code.CorrectableBits {
		return fmt.Errorf("rel: fast correctable bits %d outside [0,%d]", c.FastCorrectableBits, c.Code.CorrectableBits)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("rel: max retries %d < 0", c.MaxRetries)
	}
	if c.MaxRetries > 0 && !(c.RetryBERScale > 0 && c.RetryBERScale < 1) {
		return fmt.Errorf("rel: retry BER scale %g outside (0,1)", c.RetryBERScale)
	}
	return nil
}

// fastCode is the first-pass envelope.
func (c *Config) fastCode() ecc.Code {
	return ecc.Code{CodewordBits: c.Code.CodewordBits, CorrectableBits: c.FastCorrectableBits}
}

// Outcome classifies one page read.
type Outcome struct {
	// Corrected reports that ECC corrected at least one bit error.
	Corrected bool
	// Retries is how many extra sensing rounds the read needed (each costs
	// one more array read of latency).
	Retries int
	// Uncorrectable reports that the page failed the full code after every
	// retry round; the data is lost unless a higher layer can rebuild it.
	Uncorrectable bool
}

// rungWalk evaluates the ladder's thresholds one at a time, in the order a
// read meets them. It is the one definition of the ladder: ReadOutcome walks
// it lazily, stopping at the rung that decides the read, and Ladder walks it
// to the end.
//
//	rung 0          P(any bit error)
//	rung 1          P(fast-path failure)
//	rung 1+r        P(full-code failure at retry r), r = 1..MaxRetries
//
// Rungs from 1 on are forced non-increasing: a deeper retry can only help.
type rungWalk struct {
	c         *Config
	pageBytes int
	ber       float64 // effective BER: scaled down once per retry round
	threshold float64
	i         int
}

func (c *Config) walk(ber float64, pageBytes int) rungWalk {
	return rungWalk{c: c, pageBytes: pageBytes, ber: ber}
}

// next returns the next rung; the walk has MaxRetries+2 of them.
func (w *rungWalk) next() float64 {
	i := w.i
	w.i++
	switch i {
	case 0:
		bits := float64(w.pageBytes * 8)
		return -math.Expm1(bits * math.Log1p(-w.ber))
	case 1:
		fast := w.c.fastCode()
		w.threshold = fast.PageFailureProb(w.ber, w.pageBytes)
	default:
		w.ber *= w.c.RetryBERScale
		if p := w.c.Code.PageFailureProb(w.ber, w.pageBytes); p < w.threshold {
			w.threshold = p
		}
	}
	return w.threshold
}

// outcomeOf maps a ladder class — the index of the first rung the sample is
// not below, MaxRetries+2 when it is below all of them — to the outcome.
func outcomeOf(class, maxRetries int) Outcome {
	switch {
	case class == 0:
		return Outcome{}
	case class <= maxRetries+1:
		return Outcome{Corrected: true, Retries: class - 1}
	default:
		return Outcome{Corrected: true, Retries: maxRetries, Uncorrectable: true}
	}
}

// ReadOutcome classifies a read of a pageBytes-sized page at raw bit error
// rate ber, using the uniform sample u in [0,1). The event ladder is nested
// — uncorrectable ⊂ needs-retry ⊂ has-errors — so small u means a bad read:
//
//	u >= P(any bit error)          -> clean
//	u >= P(fast-path failure)      -> corrected in-line
//	u >= P(full-code fail @ retry r) -> corrected after r rounds
//	otherwise                      -> uncorrectable
func (c *Config) ReadOutcome(ber float64, pageBytes int, u float64) Outcome {
	if ber <= 0 {
		return Outcome{}
	}
	w := c.walk(ber, pageBytes)
	rungs := c.MaxRetries + 2
	for class := 0; class < rungs; class++ {
		if u >= w.next() {
			return outcomeOf(class, c.MaxRetries)
		}
	}
	return outcomeOf(rungs, c.MaxRetries)
}

// BERBudget returns the largest raw BER at which a page read (after the full
// retry ladder) still fails with probability at most target — the budget
// line the FTL's refresh and retirement policies steer under. Found by
// bisection; the failure probability is monotone in BER.
func (c *Config) BERBudget(pageBytes int, target float64) float64 {
	scale := 1.0
	for r := 0; r < c.MaxRetries; r++ {
		scale *= c.RetryBERScale
	}
	fails := func(ber float64) bool {
		return c.Code.PageFailureProb(ber*scale, pageBytes) > target
	}
	lo, hi := 1e-9, 0.5
	if fails(lo) {
		return lo
	}
	if !fails(hi) {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // bisect in log space
		if fails(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// mix64 is the SplitMix64 finalizer, a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sample derives the uniform [0,1) sample for one read from its identity.
// Every input is chip-local state, so per-chip op order alone fixes the
// sequence of samples — the property the epoch-sharded engine relies on.
func (c *Config) Sample(chip, block, page int, readCount uint64) float64 {
	h := c.Seed
	h = mix64(h ^ (uint64(chip)+1)*0x9e3779b97f4a7c15)
	h = mix64(h ^ (uint64(block)+1)*0xbf58476d1ce4e5b9)
	h = mix64(h ^ (uint64(page)+1)*0x94d049bb133111eb)
	h = mix64(h ^ readCount)
	return float64(h>>11) / (1 << 53)
}

// Counts aggregates a device's read outcomes.
type Counts struct {
	// Reads is the number of model-evaluated page reads.
	Reads int64
	// Corrected counts reads ECC had to correct (with or without retries).
	Corrected int64
	// RetriedReads counts reads that needed at least one retry round.
	RetriedReads int64
	// RetryRounds sums the retry rounds across all reads (latency volume).
	RetryRounds int64
	// Uncorrectable counts reads that failed the full ladder.
	Uncorrectable int64
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Reads += other.Reads
	c.Corrected += other.Corrected
	c.RetriedReads += other.RetriedReads
	c.RetryRounds += other.RetryRounds
	c.Uncorrectable += other.Uncorrectable
}
