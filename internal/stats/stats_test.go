package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of one sample != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Clamping.
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Error("quantile clamping wrong")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-sample quantile wrong")
	}
	// Interpolation.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated quantile = %v, want 5", got)
	}
}

// TestQuantileSorted: the sort-free variant agrees with Quantile on
// pre-sorted input and clamps/handles empties the same way.
func TestQuantileSorted(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if got, want := QuantileSorted(sorted, q), Quantile(sorted, q); got != want {
			t.Errorf("QuantileSorted(%v) = %v, Quantile = %v", q, got, want)
		}
	}
	if QuantileSorted(nil, 0.5) != 0 {
		t.Error("QuantileSorted(nil) != 0")
	}
	if QuantileSorted(sorted, -1) != 1 || QuantileSorted(sorted, 2) != 5 {
		t.Error("QuantileSorted clamping wrong")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	f := Summarize([]float64{1, 2, 3, 4, 5})
	if f.Min != 1 || f.Median != 3 || f.Max != 5 || f.Q1 != 2 || f.Q3 != 4 {
		t.Errorf("Summarize = %+v", f)
	}
	if Summarize(nil) != (FiveNum{}) {
		t.Error("Summarize(nil) not zero")
	}
	if f.String() == "" {
		t.Error("FiveNum.String empty")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if c.N() != 4 {
		t.Fatal("N wrong")
	}
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0.25}, {25, 0.5}, {40, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Inverse(0.5) != 20 || c.Inverse(1) != 40 || c.Inverse(0) != 10 {
		t.Errorf("Inverse wrong: %v %v %v", c.Inverse(0.5), c.Inverse(1), c.Inverse(0))
	}
	if c.Max() != 40 {
		t.Error("Max wrong")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Inverse(0.5) != 0 || c.Max() != 0 || c.Points(4) != nil {
		t.Error("empty CDF not all-zero")
	}
}

// TestNewCDFSorted: adopting a sorted slice builds the CDF NewCDF would, and
// takes no copy.
func TestNewCDFSorted(t *testing.T) {
	sorted := []float64{1, 2, 2, 5}
	c := NewCDFSorted(sorted)
	if !reflect.DeepEqual(c, NewCDF([]float64{5, 2, 1, 2})) {
		t.Errorf("NewCDFSorted = %v, NewCDF = %v", c.sorted, NewCDF(sorted).sorted)
	}
	if &c.sorted[0] != &sorted[0] {
		t.Error("NewCDFSorted copied its input")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	pts := c.Points(4)
	if len(pts) != 4 {
		t.Fatalf("points = %v", pts)
	}
	for i, p := range pts {
		if p[0] != float64(i+1) {
			t.Errorf("point %d = %v", i, p)
		}
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return va <= vb && va >= sorted[0] && vb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: CDF.At is within [0,1] and monotone.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		c := NewCDF(xs)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := c.At(a), c.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
