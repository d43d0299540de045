package workload

import "math"

// pageCountSteps bounds the thresholds a pageCount holds: enough for every
// request-size cap of the Table 1 profiles (Fileserver's 16). A larger cap
// classifies its first pageCountSteps sizes by threshold and the rest
// exactly.
const pageCountSteps = 16

// pageCountEps is the relative distance from a threshold inside which a
// uniform is classified by the exact expression. The logarithm, the product
// and the thresholds themselves are each off by a few ulps (around 1e-16), so
// outside this band every comparison agrees with the exact expression.
const pageCountEps = 1e-9

// pageCount draws request sizes: 1 + ⌊Exp(mean)⌋ capped at limit, from one
// nonzero uniform u exactly as 1 + int(-mean*math.Log(u)) would give it, but
// by comparing u with the thresholds exp(−j/mean), at or below which the size
// is at least 1+j — a few compares instead of a logarithm per request.
type pageCount struct {
	mean  float64
	limit int
	n     int                     // thresholds held: min(limit−1, pageCountSteps)
	at    [pageCountSteps]float64 // at[k] = exp(−(k+1)/mean), decreasing
}

func newPageCount(mean float64, limit int) pageCount {
	pc := pageCount{mean: mean, limit: limit, n: min(limit-1, pageCountSteps)}
	for k := 0; k < pc.n; k++ {
		pc.at[k] = math.Exp(-float64(k+1) / mean)
	}
	return pc
}

// draw returns the size of uniform u in (0, 1).
func (pc *pageCount) draw(u float64) int {
	for k := 0; k < pc.n; k++ {
		t := pc.at[k]
		if u > t*(1+pageCountEps) {
			return 1 + k
		}
		if u >= t*(1-pageCountEps) {
			return pc.exact(u)
		}
	}
	if pc.n == pc.limit-1 {
		return pc.limit
	}
	return pc.exact(u)
}

// exact is the expression draw classifies.
func (pc *pageCount) exact(u float64) int {
	pages := 1 + int(-pc.mean*math.Log(u))
	if pages > pc.limit {
		pages = pc.limit
	}
	return pages
}
