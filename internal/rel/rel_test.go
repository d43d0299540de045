package rel

import (
	"math"
	"testing"

	"flexftl/internal/ecc"
	"flexftl/internal/sim"
	"flexftl/internal/vth"
)

// TestModelStressDecades pins the derived surface against the magnitudes the
// vth Monte-Carlo study established: fresh flash reads back essentially
// error-free, and the paper's 3K-P/E + 1-year worst case lands in the
// 1e-4..1e-2 raw-BER decade of Figure 4(b).
func TestModelStressDecades(t *testing.T) {
	m := Derive(vth.DefaultParams())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := m.BER(0, 0, 0)
	if fresh <= 0 || fresh > 1e-6 {
		t.Errorf("fresh BER = %g, want tiny positive (< 1e-6)", fresh)
	}
	worst := m.BER(3000, Year, 0)
	if worst < 1e-4 || worst > 1e-2 {
		t.Errorf("worst-case BER (3K P/E, 1yr) = %g, want in [1e-4, 1e-2]", worst)
	}
	if dead := m.BER(5000, 2*Year, 0); dead <= worst {
		t.Errorf("2yr+5K BER %g should exceed worst-case %g", dead, worst)
	}
}

// TestModelMonotone checks BER is monotone in each stress axis.
func TestModelMonotone(t *testing.T) {
	m := Derive(vth.DefaultParams())
	prev := -1.0
	for pe := 0; pe <= 8000; pe += 500 {
		b := m.BER(pe, Year/2, 100)
		if b < prev {
			t.Errorf("BER not monotone in P/E at %d: %g < %g", pe, b, prev)
		}
		prev = b
	}
	prev = -1.0
	for months := 0; months <= 36; months++ {
		b := m.BER(2000, Year/12*sim.Time(months), 100)
		if b < prev {
			t.Errorf("BER not monotone in age at %d months: %g < %g", months, b, prev)
		}
		prev = b
	}
	prev = -1.0
	for reads := uint64(0); reads <= 1_000_000; reads += 50_000 {
		b := m.BER(2000, Year/2, reads)
		if b < prev {
			t.Errorf("BER not monotone in reads at %d: %g < %g", reads, b, prev)
		}
		prev = b
	}
}

// TestDeriveNLevelModel checks that deriving from a denser cell produces a
// valid denser-packed surface whose BER dominates the MLC one at equal
// stress.
func TestDeriveNLevelModel(t *testing.T) {
	tlc := Derive(vth.EvenParams(3))
	if err := tlc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tlc.Levels) != 8 || len(tlc.Refs) != 7 || tlc.BitsPerCell != 3 {
		t.Fatalf("TLC model shape: %d levels, %d refs, %d bits", len(tlc.Levels), len(tlc.Refs), tlc.BitsPerCell)
	}
	mlc := Derive(vth.EvenParams(2))
	if tlcBER, mlcBER := tlc.BER(2000, Year, 0), mlc.BER(2000, Year, 0); tlcBER <= mlcBER {
		t.Errorf("TLC BER %g should exceed MLC BER %g at equal stress", tlcBER, mlcBER)
	}
}

// TestConfigValidate exercises the construction seam, including the
// degenerate ecc.Code cases the devices must never accept.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero-value code", func(c *Config) { c.Code = ecc.Code{} }},
		{"negative codeword", func(c *Config) { c.Code.CodewordBits = -8 }},
		{"T >= codeword", func(c *Config) { c.Code.CorrectableBits = c.Code.CodewordBits }},
		{"fast > T", func(c *Config) { c.FastCorrectableBits = c.Code.CorrectableBits + 1 }},
		{"negative fast", func(c *Config) { c.FastCorrectableBits = -1 }},
		{"negative retries", func(c *Config) { c.MaxRetries = -1 }},
		{"retry scale 0", func(c *Config) { c.RetryBERScale = 0 }},
		{"retry scale 1", func(c *Config) { c.RetryBERScale = 1 }},
		{"no levels", func(c *Config) { c.Model.Levels = nil }},
		{"zero sigma", func(c *Config) { c.Model.ProgramSigma = 0 }},
		{"ref outside band", func(c *Config) { c.Model.Refs[0] = c.Model.Levels[2] }},
	}
	for _, tc := range cases {
		c := DefaultConfig(1)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a degenerate config", tc.name)
		}
	}
}

// TestReadOutcomeLadder checks the nested event structure: as u shrinks the
// outcome only worsens, and the boundary probabilities follow the config.
func TestReadOutcomeLadder(t *testing.T) {
	c := DefaultConfig(7)
	const page = 4096
	ber := c.Model.BER(3000, Year, 0) // worst case: meaningful retry mass
	worstRank := func(o Outcome) int {
		switch {
		case o.Uncorrectable:
			return 2 + c.MaxRetries
		case o.Retries > 0:
			return 1 + o.Retries
		case o.Corrected:
			return 1
		default:
			return 0
		}
	}
	prev := math.MaxInt
	for _, u := range []float64{0, 1e-300, 1e-100, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999999} {
		o := c.ReadOutcome(ber, page, u)
		r := worstRank(o)
		if r > prev {
			t.Errorf("ladder not nested: u=%g rank %d > previous %d", u, r, prev)
		}
		prev = r
		if o.Uncorrectable && !o.Corrected {
			t.Errorf("u=%g: uncorrectable outcome should still mark Corrected attempt", u)
		}
	}
	// Clean read at u just above pAny; corrected below it.
	bits := float64(page * 8)
	pAny := -math.Expm1(bits * math.Log1p(-ber))
	if o := c.ReadOutcome(ber, page, pAny*1.01); o.Corrected || o.Retries != 0 || o.Uncorrectable {
		t.Errorf("u above pAny should be clean, got %+v", o)
	}
	if o := c.ReadOutcome(ber, page, pAny*0.99); !o.Corrected {
		t.Errorf("u below pAny should be corrected, got %+v", o)
	}
	// Zero BER is always clean, even at u=0.
	if o := c.ReadOutcome(0, page, 0); o != (Outcome{}) {
		t.Errorf("zero BER should be clean, got %+v", o)
	}
	// At worst-case stress the fast path must leave a visible retry band:
	// the CI smoke asserts nonzero retries at default ECC.
	fast := ecc.Code{CodewordBits: c.Code.CodewordBits, CorrectableBits: c.FastCorrectableBits}
	pFast := fast.PageFailureProb(ber, page)
	if pFast < 1e-4 {
		t.Errorf("fast-path failure prob %g too small for retries to ever fire", pFast)
	}
	if o := c.ReadOutcome(ber, page, pFast*0.9); o.Retries == 0 {
		t.Errorf("u below fast threshold should retry, got %+v", o)
	}
	// But the full ladder keeps worst case comfortably correctable.
	pFull := c.Code.PageFailureProb(ber*math.Pow(c.RetryBERScale, float64(c.MaxRetries)), page)
	if pFull > 1e-8 {
		t.Errorf("full-ladder failure prob %g at worst case; uncorrectables would pollute the default config", pFull)
	}
}

// TestSampleDeterministic checks the read hash is stable, seed-sensitive,
// and spreads across identities.
func TestSampleDeterministic(t *testing.T) {
	a := DefaultConfig(42)
	b := DefaultConfig(43)
	if a.Sample(1, 2, 3, 4) != a.Sample(1, 2, 3, 4) {
		t.Error("Sample not deterministic")
	}
	if a.Sample(1, 2, 3, 4) == b.Sample(1, 2, 3, 4) {
		t.Error("Sample ignores seed")
	}
	seen := map[float64]bool{}
	sum := 0.0
	const n = 4096
	for i := 0; i < n; i++ {
		u := a.Sample(i&3, i>>2, i%7, uint64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("sample %g outside [0,1)", u)
		}
		seen[u] = true
		sum += u
	}
	if len(seen) < n-4 {
		t.Errorf("only %d/%d distinct samples", len(seen), n)
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("sample mean %g far from 0.5", mean)
	}
}

// TestBERBudget checks the bisection inverts the failure curve.
func TestBERBudget(t *testing.T) {
	c := DefaultConfig(1)
	const page = 4096
	scale := math.Pow(c.RetryBERScale, float64(c.MaxRetries))
	for _, target := range []float64{1e-6, 1e-4, 1e-2} {
		budget := c.BERBudget(page, target)
		at := c.Code.PageFailureProb(budget*scale, page)
		above := c.Code.PageFailureProb(budget*1.05*scale, page)
		if at > target*1.01 {
			t.Errorf("target %g: failure at budget %g is %g > target", target, budget, at)
		}
		if above < target {
			t.Errorf("target %g: budget %g not tight (failure just above = %g)", target, budget, above)
		}
	}
	// The worst-case BER must sit under a loose default budget — the model
	// only pushes past it with added retention or read-disturb stress.
	worst := c.Model.BER(3000, Year, 0)
	if budget := c.BERBudget(page, 1e-4); worst >= budget {
		t.Errorf("worst-case BER %g already over the 1e-4 budget %g", worst, budget)
	}
}

// TestCountsAdd checks aggregation is field-complete.
func TestCountsAdd(t *testing.T) {
	a := Counts{Reads: 1, Corrected: 2, RetriedReads: 3, RetryRounds: 4, Uncorrectable: 5}
	b := Counts{Reads: 10, Corrected: 20, RetriedReads: 30, RetryRounds: 40, Uncorrectable: 50}
	a.Add(b)
	want := Counts{Reads: 11, Corrected: 22, RetriedReads: 33, RetryRounds: 44, Uncorrectable: 55}
	if a != want {
		t.Errorf("Add: got %+v want %+v", a, want)
	}
}
