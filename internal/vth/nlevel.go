package vth

import (
	"fmt"
	"math"

	"flexftl/internal/core"
	"flexftl/internal/rng"
)

// N-level generalization of the Monte-Carlo model: a k-th refinement program
// splits each of the word line's 2^k distributions in two, so after the
// final (level n-1) program the cell sits in one of 2^n states. The
// interference mechanism is unchanged — a neighbour program couples a
// fraction of its cells' Vth increase onto the victim — and, as in the MLC
// model, a word line's own refinement program re-forms its distribution,
// clearing interference accumulated earlier. This is what lets the
// generalized shielding constraint (internal/nlevel) bound post-final
// aggressors at one for every legal relaxed order, TLC included.

// NLevelParams parameterizes the generalized model.
type NLevelParams struct {
	// Window is the total Vth range [WindowLow, WindowHigh] that the final
	// 2^n states are evenly placed across.
	WindowLow, WindowHigh float64
	// ProgramSigma is the per-program placement spread. Finer levels verify
	// more precisely: the effective sigma at level i is
	// ProgramSigma / 2^(levels-1-i)... no — the model uses the same sigma
	// for all programs and relies on the growing state count to shrink
	// margins, matching how real parts trade margin for capacity.
	ProgramSigma float64
	// CouplingRatio/CouplingSigma as in the MLC model.
	CouplingRatio, CouplingSigma float64
	CellsPerWordLine             int
	WearSigmaPerKCycle           float64
	RetentionShiftPerYear        float64
	RetentionSigmaPerYear        float64
}

// DefaultNLevelParams mirrors DefaultParams' MLC constants, scaled so that a
// TLC part lands in a realistic (worse-than-MLC) BER decade at end of life.
func DefaultNLevelParams() NLevelParams {
	return NLevelParams{
		WindowLow:             -2.6,
		WindowHigh:            2.8,
		ProgramSigma:          0.09,
		CouplingRatio:         0.035,
		CouplingSigma:         0.012,
		CellsPerWordLine:      2048,
		WearSigmaPerKCycle:    0.035,
		RetentionShiftPerYear: 0.22,
		RetentionSigmaPerYear: 0.05,
	}
}

// NLevelModel is the reusable n-level simulator.
type NLevelModel struct {
	p NLevelParams
}

// NewNLevelModel validates parameters.
func NewNLevelModel(p NLevelParams) (*NLevelModel, error) {
	if p.CellsPerWordLine <= 0 {
		return nil, fmt.Errorf("vth: CellsPerWordLine must be positive, got %d", p.CellsPerWordLine)
	}
	if p.ProgramSigma <= 0 {
		return nil, fmt.Errorf("vth: ProgramSigma must be positive, got %g", p.ProgramSigma)
	}
	if p.WindowHigh <= p.WindowLow {
		return nil, fmt.Errorf("vth: window [%g,%g] inverted", p.WindowLow, p.WindowHigh)
	}
	return &NLevelModel{p: p}, nil
}

// levelTargets fills dst with the nominal Vth levels after the (depth+1)-th
// refinement program: 2^(depth+1) evenly spaced levels across the window.
// After the final program these are the 2^levels state levels. dst must
// have capacity for 2^(depth+1) values; the filled prefix is returned.
func (m *NLevelModel) levelTargets(dst []float64, depth int) []float64 {
	n := 1 << (depth + 1)
	out := dst[:n]
	span := m.p.WindowHigh - m.p.WindowLow
	for i := 0; i < n; i++ {
		out[i] = m.p.WindowLow + span*float64(i)/float64(n-1)
	}
	return out
}

// NLevelResult aggregates a simulated block.
type NLevelResult struct {
	Scheme    core.Scheme
	WordLines []WordLineResult
	TotalBits int
	TotalErrs int
}

// WPSums returns the per-word-line width sums.
func (r NLevelResult) WPSums() []float64 {
	out := make([]float64, len(r.WordLines))
	for i, w := range r.WordLines {
		out[i] = w.WPSum
	}
	return out
}

// BERs returns the per-word-line bit error rates.
func (r NLevelResult) BERs() []float64 {
	out := make([]float64, len(r.WordLines))
	for i, w := range r.WordLines {
		out[i] = w.BER
	}
	return out
}

// BlockBER returns the block-aggregate bit error rate.
func (r NLevelResult) BlockBER() float64 {
	if r.TotalBits == 0 {
		return 0
	}
	return float64(r.TotalErrs) / float64(r.TotalBits)
}

// SimulateBlock programs a block under the given page order with random
// data and measures per-word-line width sums and BERs under stress. Each
// call allocates fresh scratch; hot loops use SimulateBlockArena.
func (m *NLevelModel) SimulateBlock(s core.Scheme, order []core.Page, stress StressCondition, src *rng.Source) (NLevelResult, error) {
	return m.SimulateBlockArena(s, order, stress, src, NewArena())
}

// SimulateBlockArena is SimulateBlock on caller-owned scratch: zero
// steady-state heap allocations with a warm arena. The result's WordLines
// slice aliases arena memory and is valid until the arena's next
// simulation. Results are identical to SimulateBlock's.
func (m *NLevelModel) SimulateBlockArena(s core.Scheme, order []core.Page, stress StressCondition, src *rng.Source, a *Arena) (NLevelResult, error) {
	if err := s.Validate(); err != nil {
		return NLevelResult{}, err
	}
	if len(order) != s.Pages() {
		return NLevelResult{}, fmt.Errorf("vth: order has %d pages, block has %d", len(order), s.Pages())
	}
	p := m.p
	n := p.CellsPerWordLine
	wl := s.WordLines
	a.forNLevel(s, n)

	// Cell arrays are flat and strided: word line k's cell c is at k*n + c.
	vth, state, depth := a.vth, a.state, a.depth
	for k := 0; k < wl; k++ {
		row := vth[k*n : (k+1)*n]
		for c := range row {
			row[c] = p.WindowLow + src.Normal(0, p.ProgramSigma)
		}
	}
	delta := a.delta

	disturb := func(victim int) {
		if victim < 0 || victim >= wl || depth[victim] != s.Levels {
			return // not finally programmed yet: its own refinements absorb it
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
		if pg.WL < 0 || pg.WL >= wl || int(pg.Type) >= s.Levels {
			return NLevelResult{}, fmt.Errorf("vth: order[%d]=%v out of range", i, pg)
		}
		if a.seen.Written(pg) {
			return NLevelResult{}, fmt.Errorf("vth: order[%d]=%v programmed twice", i, pg)
		}
		a.seen.Mark(pg)
		k := pg.WL
		base := k * n
		targets := m.levelTargets(a.levels, depth[k])
		for c := 0; c < n; c++ {
			// The new data bit splits the cell's current voltage region in
			// two. The reflected-Gray mapping real parts use corresponds to
			// XOR-ing the incoming bit with the current region's LSB, so
			// voltage-adjacent final states always differ in one data bit.
			bit := int32(src.Intn(2))
			newState := state[base+c]*2 + (bit ^ (state[base+c] & 1))
			state[base+c] = newState
			old := vth[base+c]
			vth[base+c] = targets[newState] + src.Normal(0, p.ProgramSigma)
			if d := vth[base+c] - old; d > 0 {
				delta[c] = d
			} else {
				delta[c] = 0
			}
		}
		depth[k]++
		disturb(k - 1)
		disturb(k + 1)
	}

	wearSigma := p.WearSigmaPerKCycle * float64(stress.PECycles) / 1000.0
	retShift := p.RetentionShiftPerYear * stress.RetentionYears
	retSigma := p.RetentionSigmaPerYear * stress.RetentionYears
	states := 1 << s.Levels
	finals := m.levelTargets(a.levels, s.Levels-1)
	bitsPerCell := s.Levels

	res := NLevelResult{Scheme: s, WordLines: a.results[:wl]}
	minV, maxV, have := a.minV, a.maxV, a.haveSt
	for k := 0; k < wl; k++ {
		for st := 0; st < states; st++ {
			have[st] = false
		}
		errs := 0
		base := k * n
		for c := 0; c < n; c++ {
			v := vth[base+c]
			if wearSigma > 0 {
				v += src.Normal(0, wearSigma)
			}
			if stress.RetentionYears > 0 {
				frac := float64(state[base+c]) / float64(states-1)
				v -= retShift * frac
				v += src.Normal(0, retSigma)
			}
			st := int(state[base+c])
			if !have[st] {
				minV[st], maxV[st] = v, v
				have[st] = true
			} else if v < minV[st] {
				minV[st] = v
			} else if v > maxV[st] {
				maxV[st] = v
			}
			got := classifyNearest(v, finals)
			if got != st {
				errs += grayDistanceBits(st, got, bitsPerCell)
			}
		}
		wp := 0.0
		for st := 0; st < states; st++ {
			if have[st] {
				wp += maxV[st] - minV[st]
			}
		}
		res.WordLines[k] = WordLineResult{
			WL:         k,
			WPSum:      wp,
			BER:        float64(errs) / float64(bitsPerCell*n),
			Aggressors: a.aggr[k],
		}
		res.TotalBits += bitsPerCell * n
		res.TotalErrs += errs
	}
	return res, nil
}

// classifyNearest maps a Vth to the index of the nearest final level —
// equivalent to thresholding at the midpoints for evenly spaced levels.
func classifyNearest(v float64, levels []float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, l := range levels {
		if d := math.Abs(v - l); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// grayDistanceBits counts differing data bits between two state indices
// under the reflected Gray code the split-programming induces (adjacent
// states differ in exactly one bit).
func grayDistanceBits(a, b, bits int) int {
	ga := a ^ (a >> 1)
	gb := b ^ (b >> 1)
	x := ga ^ gb
	count := 0
	for i := 0; i < bits; i++ {
		if x&(1<<i) != 0 {
			count++
		}
	}
	return count
}
