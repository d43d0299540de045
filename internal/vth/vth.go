// Package vth is the threshold-voltage reliability model behind the
// Figure 4 study and its TLC extension: it Monte-Carlo-simulates programming
// a block of multi-level cells under a given page program order,
// accumulating cell-to-cell interference from aggressor programs, and
// reports per-page Vth distribution widths (WPi) and bit error rates under
// end-of-life stress (P/E cycling + retention).
//
// There is one simulator and it is table-driven. A Cell describes the part:
// per program step, which state each (state, data bit) pair moves to and
// where that state is placed; per final state, the data bits it stores.
// The package ships two cells — Fig1Cell, the calibrated 2-bit MLC cell of
// the paper's Figure 1, and EvenCell, 2^n states evenly spaced across a
// window, whose every program splits each distribution in two — and the
// Model runs either through the same loop.
//
// The model encodes the paper's Section 2 argument directly: a word line's
// own program re-forms its Vth distribution (clearing earlier disturbance),
// so only neighbour programs occurring *after* its final program widen its
// final states. Orders that bound that aggressor count by 1 — the fixed
// interleave and every legal RPS order, at every level count (core's
// shielding constraint C3) — therefore produce statistically identical
// widths, while unconstrained orders with up to 2 x bits late aggressors
// blow the distributions out.
package vth

import (
	"fmt"
	"math/bits"

	"flexftl/internal/core"
	"flexftl/internal/rng"
)

// MaxBits is the densest cell the model describes (4 bits per cell, QLC,
// the same limit as nand.MaxLevels); MaxStates is its state count.
const (
	MaxBits   = 4
	MaxStates = 1 << MaxBits
)

// Step is one program step of a cell — the program of the word line's
// level-d page, which hands every cell one data bit. After step d a cell is
// in one of 2^(d+1) states, numbered in ascending Vth order.
type Step struct {
	// Next[2*s+b] is the state a cell in state s takes for data bit b.
	Next [MaxStates]uint8
	// Keep[2*s+b] marks a program that leaves the cell untouched: it gets no
	// pulse, so it is not re-placed and couples nothing onto its neighbours.
	Keep [MaxStates]bool
	// Level[s] is the program-verify target of state s after this step.
	Level [MaxStates]float64
}

// Cell describes a multi-level cell as its program table. It is a plain
// value: copying it copies the table.
type Cell struct {
	// Bits is the number of data bits per cell, which is also the number of
	// program steps per word line and of pages per word line.
	Bits int
	// Steps[d] is the program of the level-d page; Steps[Bits-1].Level holds
	// the final state levels, and Level[0] of it the erased level.
	Steps [MaxBits]Step
	// Code[s] is the data final state s stores, written the way the paper
	// writes it: the LSB page's bit first (bit Bits-1), the finest page's
	// bit last (bit 0). Voltage-adjacent states differ in exactly one bit
	// (Gray coding), so a single-level misread costs one bit error.
	Code [MaxStates]uint8
}

// Fig1Cell is the calibrated 2-bit MLC cell of Figure 1: final states E
// (11), P1 (01), P2 (00), P3 (10), and the LSB-programmed transient state
// X0 in between.
func Fig1Cell() Cell {
	return Cell{
		Bits: 2,
		Steps: [MaxBits]Step{
			// LSB program: data 1 keeps the cell erased (no program at all),
			// data 0 lifts it to X0.
			{Next: [MaxStates]uint8{1, 0}, Keep: [MaxStates]bool{false, true}, Level: [MaxStates]float64{-2.6, 0.9}},
			// MSB program: E becomes P3 (0) or stays E (1), X0 becomes P2 (0)
			// or P1 (1). Every cell, E included, is re-placed at its final
			// level with fresh program noise, clearing the interference it
			// accumulated in the transient state.
			{Next: [MaxStates]uint8{3, 0, 2, 1}, Level: [MaxStates]float64{-2.6, 0.4, 1.6, 2.8}},
		},
		Code: [MaxStates]uint8{0b11, 0b01, 0b00, 0b10},
	}
}

// EvenCell is a 2^bits-state cell whose step d places 2^(d+1) evenly spaced
// levels across [low, high]: each refinement program splits every
// distribution of the word line in two and re-places every cell. The new
// data bit is XOR-ed with the current region's low bit — the reflected Gray
// mapping real parts use — so the final code is s ^ s>>1.
func EvenCell(bits int, low, high float64) Cell {
	c := Cell{Bits: bits}
	span := high - low
	for d := 0; d < bits && d < MaxBits; d++ {
		st, n := &c.Steps[d], 1<<(d+1)
		for i := 0; i < n; i++ {
			st.Level[i] = low + span*float64(i)/float64(n-1)
			s, b := i>>1, i&1
			st.Next[i] = uint8(2*s + (b ^ s&1))
		}
	}
	for s := range c.Code {
		c.Code[s] = uint8(s ^ s>>1)
	}
	return c
}

// States returns the number of final states.
func (c Cell) States() int { return 1 << c.Bits }

// Levels returns the nominal levels of the final states in ascending order
// (nil for a cell whose bit count is out of range).
func (c Cell) Levels() []float64 {
	if c.Bits < 1 || c.Bits > MaxBits {
		return nil
	}
	return append([]float64(nil), c.Steps[c.Bits-1].Level[:c.States()]...)
}

// ReadReferences returns the States()-1 read thresholds, placed at the
// midpoints between adjacent final levels.
func (c Cell) ReadReferences() []float64 {
	refs := c.Levels()
	if len(refs) == 0 {
		return nil
	}
	for i := range refs[1:] { // in place: refs[i+1] is still a level here
		refs[i] = (refs[i] + refs[i+1]) / 2
	}
	return refs[:len(refs)-1]
}

// StateName names final state s with its data bits, LSB page first: "E(11)",
// "P1(01)", ...
func (c Cell) StateName(s int) string {
	if s < 0 || s >= c.States() {
		return fmt.Sprintf("State(%d)", s)
	}
	if s == 0 {
		return fmt.Sprintf("E(%0*b)", c.Bits, c.Code[s])
	}
	return fmt.Sprintf("P%d(%0*b)", s, c.Bits, c.Code[s])
}

// bitErrors counts the data bits that differ between two final states.
func (c Cell) bitErrors(a, b int) int { return bits.OnesCount8(c.Code[a] ^ c.Code[b]) }

// validate rejects tables the simulator cannot index or classify.
func (c Cell) validate() error {
	if c.Bits < 2 || c.Bits > MaxBits {
		return fmt.Errorf("vth: cell needs 2..%d bits, got %d", MaxBits, c.Bits)
	}
	for d := 0; d < c.Bits; d++ {
		for i, n := 0, 1<<(d+1); i < n; i++ {
			if int(c.Steps[d].Next[i]) >= n {
				return fmt.Errorf("vth: step %d moves state %d (bit %d) to %d, past its %d states", d, i>>1, i&1, c.Steps[d].Next[i], n)
			}
		}
	}
	levels := c.Levels()
	for i := range levels[1:] {
		if levels[i] >= levels[i+1] {
			return fmt.Errorf("vth: state levels must be increasing: %v", levels)
		}
	}
	return nil
}

// Params are the physical constants of the model, in volts.
type Params struct {
	// Cell is the part being simulated.
	Cell Cell
	// ProgramSigma is the spread of a fresh program operation, the same at
	// every step: denser cells lose margin to their state count, not to a
	// coarser program.
	ProgramSigma float64
	// CouplingRatio is the fraction of an aggressor cell's Vth increase
	// that capacitively couples onto the aligned cell of a neighbouring
	// word line (the cell-to-cell interference mechanism of Section 2.1).
	CouplingRatio float64
	// CouplingSigma is the per-cell relative spread of the coupling ratio
	// (process variation in parasitic capacitance).
	CouplingSigma float64
	// CellsPerWordLine is the Monte-Carlo population per word line.
	CellsPerWordLine int
	// WearSigmaPerKCycle widens every state by this much per 1000 P/E
	// cycles (oxide damage).
	WearSigmaPerKCycle float64
	// RetentionShiftPerYear moves programmed states down (charge loss) per
	// year, scaled by how high the state sits.
	RetentionShiftPerYear float64
	// RetentionSigmaPerYear adds spread per year of retention.
	RetentionSigmaPerYear float64
}

// DefaultParams returns the Figure 1 MLC cell with constants calibrated so
// that (a) fresh FPS blocks read back error-free, (b) the worst-case
// operating condition of the paper (3K P/E + 1 year retention) lands the BER
// in the 1e-4..1e-2 decade of Figure 4(b), and (c) four late aggressors
// measurably widen WPi.
func DefaultParams() Params {
	return Params{
		Cell:                  Fig1Cell(),
		ProgramSigma:          0.11,
		CouplingRatio:         0.035,
		CouplingSigma:         0.012,
		CellsPerWordLine:      2048,
		WearSigmaPerKCycle:    0.035,
		RetentionShiftPerYear: 0.22,
		RetentionSigmaPerYear: 0.05,
	}
}

// EvenParams returns the same physics on an evenly spaced 2^bits-state cell
// across the Figure 1 window, with the program spread scaled so that a TLC
// part lands in a realistic (worse-than-MLC) BER decade at end of life.
func EvenParams(bits int) Params {
	p := DefaultParams()
	p.Cell = EvenCell(bits, -2.6, 2.8)
	p.ProgramSigma = 0.09
	return p
}

// StressCondition describes an operating point for BER measurement.
type StressCondition struct {
	PECycles       int     // program/erase cycles endured
	RetentionYears float64 // time since programming
}

// WorstCase is the paper's end-of-life condition: 3K P/E cycles and 1-year
// retention.
var WorstCase = StressCondition{PECycles: 3000, RetentionYears: 1}

// Fresh is the begin-of-life condition.
var Fresh = StressCondition{}

// WordLineResult carries the per-word-line outputs of a block simulation.
type WordLineResult struct {
	WL int
	// WPSum is the sum over the final states of the Vth distribution widths
	// (max-min within the state's population), the paper's Figure 4(a)
	// metric.
	WPSum float64
	// BER is the bit error rate of the word line's pages under the stress
	// condition supplied to SimulateBlock.
	BER float64
	// Aggressors is the number of neighbour programs after this WL's final
	// program (the quantity RPS bounds at 1).
	Aggressors int
}

// BlockResult aggregates a simulated block.
type BlockResult struct {
	Scheme    core.Scheme
	WordLines []WordLineResult
	TotalBits int
	TotalErrs int
}

// WPSums returns the per-word-line WPSum series.
func (b BlockResult) WPSums() []float64 {
	out := make([]float64, len(b.WordLines))
	for i, w := range b.WordLines {
		out[i] = w.WPSum
	}
	return out
}

// BERs returns the per-word-line BER series.
func (b BlockResult) BERs() []float64 {
	out := make([]float64, len(b.WordLines))
	for i, w := range b.WordLines {
		out[i] = w.BER
	}
	return out
}

// BlockBER returns the block-aggregate bit error rate.
func (b BlockResult) BlockBER() float64 {
	if b.TotalBits == 0 {
		return 0
	}
	return float64(b.TotalErrs) / float64(b.TotalBits)
}

// Model is a reusable simulator with fixed parameters.
type Model struct {
	p    Params
	refs []float64 // read references of the cell
}

// NewModel validates the parameters and returns a Model.
func NewModel(p Params) (*Model, error) {
	if p.CellsPerWordLine <= 0 {
		return nil, fmt.Errorf("vth: CellsPerWordLine must be positive, got %d", p.CellsPerWordLine)
	}
	if p.ProgramSigma <= 0 {
		return nil, fmt.Errorf("vth: ProgramSigma must be positive, got %g", p.ProgramSigma)
	}
	if err := p.Cell.validate(); err != nil {
		return nil, err
	}
	return &Model{p: p, refs: p.Cell.ReadReferences()}, nil
}

// Params returns the model constants.
func (m *Model) Params() Params { return m.p }

// SimulateBlock programs a block in the given page order with random data,
// applies the stress condition, and returns per-word-line WPi sums and BERs.
// The scheme's level count must be the cell's bit count, and the order must
// program every page of the block exactly once (use core's order
// constructors).
//
// Each call allocates fresh scratch; hot loops (the Figure 4 drivers) use
// SimulateBlockArena with a per-worker Arena instead.
func (m *Model) SimulateBlock(s core.Scheme, order []core.Page, stress StressCondition, src *rng.Source) (BlockResult, error) {
	return m.SimulateBlockArena(s, order, stress, src, NewArena())
}

// SimulateBlockArena is SimulateBlock running on caller-owned scratch: with
// a warm arena the steady-state simulation performs zero heap allocations.
// The result's WordLines slice aliases arena memory and is valid until the
// arena's next simulation. Results are identical to SimulateBlock's for the
// same inputs.
func (m *Model) SimulateBlockArena(s core.Scheme, order []core.Page, stress StressCondition, src *rng.Source, a *Arena) (BlockResult, error) {
	if err := m.program(s, order, src, a); err != nil {
		return BlockResult{}, err
	}
	return m.measure(s, 0, s.WordLines, stress, src, a), nil
}

// program runs the programming phase: cells are placed per the order,
// accumulating aggressor coupling, and left pre-stress in the arena. Cell
// arrays are flat and strided: word line k's cell c is at k*cells + c.
func (m *Model) program(s core.Scheme, order []core.Page, src *rng.Source, a *Arena) error {
	if err := s.Validate(); err != nil {
		return err
	}
	p, cell := &m.p, &m.p.Cell
	if s.Levels != cell.Bits {
		return fmt.Errorf("vth: %d-level block on a %d-bit cell", s.Levels, cell.Bits)
	}
	if len(order) != s.Pages() {
		return fmt.Errorf("vth: order has %d pages, block has %d", len(order), s.Pages())
	}
	n, wl := p.CellsPerWordLine, s.WordLines
	a.size(s, n)
	vth, state, depth := a.vth, a.state, a.depth
	erased := cell.Steps[cell.Bits-1].Level[0]
	for i := range vth {
		vth[i] = erased + src.Normal(0, p.ProgramSigma)
	}

	// delta carries the per-cell Vth increase of the latest program, which
	// couples onto the aligned cells of neighbouring word lines.
	delta := a.delta
	disturb := func(victim int) {
		if victim < 0 || victim >= wl || depth[victim] != cell.Bits {
			// Interference onto partially-programmed word lines is absorbed
			// when their own later programs re-form the distribution, so
			// only finally-programmed victims accumulate it.
			return
		}
		a.aggr[victim]++
		row := vth[victim*n : (victim+1)*n]
		for c := 0; c < n; c++ {
			if delta[c] <= 0 {
				continue
			}
			gamma := p.CouplingRatio + src.Normal(0, p.CouplingSigma)
			if gamma < 0 {
				gamma = 0
			}
			row[c] += delta[c] * gamma
		}
	}

	for i, pg := range order {
		if pg.WL < 0 || pg.WL >= wl || int(pg.Type) >= cell.Bits {
			return fmt.Errorf("vth: order[%d]=%v out of range", i, pg)
		}
		if a.seen.Written(pg) {
			return fmt.Errorf("vth: order[%d]=%v programmed twice", i, pg)
		}
		a.seen.Mark(pg)
		k := pg.WL
		// A word line's programs take its steps in turn whatever the page
		// is called: the first program of a cell is always the coarsest.
		step := &cell.Steps[depth[k]]
		row, rowState := vth[k*n:(k+1)*n], state[k*n:(k+1)*n]
		for c := range row {
			t := 2*int(rowState[c]) + src.Intn(2)
			next := step.Next[t]
			rowState[c] = next
			delta[c] = 0
			if step.Keep[t] {
				continue
			}
			old := row[c]
			row[c] = step.Level[next] + src.Normal(0, p.ProgramSigma)
			if d := row[c] - old; d > 0 {
				delta[c] = d
			}
		}
		depth[k]++
		disturb(k - 1)
		disturb(k + 1)
	}
	return nil
}

// measure applies wear widening and retention shift to word lines [lo, hi)
// of the arena's programmed block — leaving the stressed voltages in the
// arena — and computes their widths and bit errors.
func (m *Model) measure(s core.Scheme, lo, hi int, stress StressCondition, src *rng.Source, a *Arena) BlockResult {
	p, cell := &m.p, &m.p.Cell
	n, states := p.CellsPerWordLine, cell.States()
	wearSigma := p.WearSigmaPerKCycle * float64(stress.PECycles) / 1000.0
	retShift := p.RetentionShiftPerYear * stress.RetentionYears
	retSigma := p.RetentionSigmaPerYear * stress.RetentionYears
	refs := m.refs

	res := BlockResult{Scheme: s, WordLines: a.results[lo:hi]}
	for k := lo; k < hi; k++ {
		// Group cells by intended state for width measurement, after stress.
		var minV, maxV [MaxStates]float64
		var have [MaxStates]bool
		errs := 0
		row, rowState := a.vth[k*n:(k+1)*n], a.state[k*n:(k+1)*n]
		for c, v := range row {
			st := int(rowState[c])
			if stress.PECycles > 0 {
				v += src.Normal(0, wearSigma)
			}
			if stress.RetentionYears > 0 {
				// Charge loss scales with how much charge the state holds.
				v -= retShift * (float64(st) / float64(states-1))
				v += src.Normal(0, retSigma)
			}
			row[c] = v
			if !have[st] {
				minV[st], maxV[st] = v, v
				have[st] = true
			} else if v < minV[st] {
				minV[st] = v
			} else if v > maxV[st] {
				maxV[st] = v
			}
			got := 0
			for got < len(refs) && v >= refs[got] {
				got++
			}
			if got != st {
				errs += cell.bitErrors(st, got)
			}
		}
		wpSum := 0.0
		for st := 0; st < states; st++ {
			if have[st] {
				wpSum += maxV[st] - minV[st]
			}
		}
		res.WordLines[k-lo] = WordLineResult{
			WL:         k,
			WPSum:      wpSum,
			BER:        float64(errs) / float64(cell.Bits*n),
			Aggressors: a.aggr[k],
		}
		res.TotalBits += cell.Bits * n
		res.TotalErrs += errs
	}
	return res
}

// WordLineSample holds one word line's post-stress cell voltages grouped by
// intended state. The per-state groups are views into a single flat buffer
// (no per-state map or repeated append growth).
type WordLineSample struct {
	byState [MaxStates][]float64
}

// State returns the voltages of cells targeted at final state st, in cell
// order.
func (s *WordLineSample) State(st int) []float64 {
	if st < 0 || st >= MaxStates {
		return nil
	}
	return s.byState[st]
}

// Total returns the sampled cell count.
func (s *WordLineSample) Total() int {
	n := 0
	for _, g := range s.byState {
		n += len(g)
	}
	return n
}

// SampleWordLine programs a block under the given order, applies stress to
// word line wl, and returns its cell Vth values grouped by intended state —
// the data behind the Figure 1 distribution diagram.
func (m *Model) SampleWordLine(s core.Scheme, order []core.Page, wl int, stress StressCondition, src *rng.Source) (WordLineSample, error) {
	if wl < 0 || wl >= s.WordLines {
		return WordLineSample{}, fmt.Errorf("vth: word line %d out of range [0,%d)", wl, s.WordLines)
	}
	a := NewArena()
	if err := m.program(s, order, src, a); err != nil {
		return WordLineSample{}, err
	}
	m.measure(s, wl, wl+1, stress, src, a)
	// Bucket the word line's cells into one flat buffer: count, carve
	// per-state sub-slices, then fill in cell order.
	n := m.p.CellsPerWordLine
	row, rowState := a.vth[wl*n:(wl+1)*n], a.state[wl*n:(wl+1)*n]
	var counts [MaxStates]int
	for _, st := range rowState {
		counts[st]++
	}
	flat := make([]float64, n)
	var out WordLineSample
	off := 0
	for st, count := range counts {
		out.byState[st] = flat[off:off:(off + count)]
		off += count
	}
	for c, st := range rowState {
		out.byState[st] = append(out.byState[st], row[c])
	}
	return out, nil
}
