package workload

import (
	"math"
	"testing"

	"flexftl/internal/rng"
)

// oldPageCount is the request-size expression the generator used before the
// threshold classifier: the oracle pageCount.draw must reproduce.
func oldPageCount(src *rng.Source, p Profile) int {
	pages := 1 + int(src.Exp(p.PagesMean-1))
	if pages > p.PagesCap {
		pages = p.PagesCap
	}
	return pages
}

// classifierProfiles are the Table 1 profiles, the placement study's Zipf
// sweep and one profile whose cap exceeds the classifier's thresholds.
func classifierProfiles() []Profile {
	ps := All()
	for theta := 0.5; theta < 1.25; theta += 0.1 {
		if math.Abs(theta-1) > 1e-9 {
			ps = append(ps, ZipfProfile(theta))
		}
	}
	wide := Fileserver()
	wide.Name, wide.PagesMean, wide.PagesCap = "wide", 6, 40
	return append(ps, wide)
}

// TestPageCountOracle: the threshold classifier draws exactly the sizes the
// old expression drew — on a million uniforms per profile, taken from the
// stream the way the generator takes them, and on every float64 within 64
// ulps of each threshold, where the logarithm's rounding decides.
func TestPageCountOracle(t *testing.T) {
	for _, p := range classifierProfiles() {
		pc := newPageCount(p.PagesMean-1, p.PagesCap)
		got, want := rng.New(11), rng.New(11)
		for i := 0; i < 1_000_000; i++ {
			if g, w := pc.draw(got.Float64NonZero()), oldPageCount(want, p); g != w {
				t.Fatalf("%s draw %d: %d pages, the old expression %d", p.Name, i, g, w)
			}
		}
		exact := func(u float64) int {
			pages := 1 + int(-(p.PagesMean-1)*math.Log(u))
			if pages > p.PagesCap {
				pages = p.PagesCap
			}
			return pages
		}
		for k := 0; k < pc.n; k++ {
			lo, hi := pc.at[k], pc.at[k]
			for i := 0; i < 64; i++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			}
			for u := lo; u <= hi; u = math.Nextafter(u, 1) {
				if u <= 0 || u >= 1 {
					continue
				}
				if g, w := pc.draw(u), exact(u); g != w {
					t.Fatalf("%s threshold %d, u=%v: %d pages, the exact expression %d", p.Name, k+1, u, g, w)
				}
			}
		}
	}
}

// TestRequestStreamPinned: the first 10^5 requests of each Table 1 profile
// at seeds 42 and 7 hash to the values the generator has always produced, so
// a change to the request stream fails here before it reaches a digest.
func TestRequestStreamPinned(t *testing.T) {
	pinned := []struct {
		name string
		seed uint64
		hash uint64
	}{
		{"OLTP", 42, 0xdc6edfbd2516b616},
		{"OLTP", 7, 0x94a9506e79f4fa0e},
		{"NTRX", 42, 0x25d997e32d083810},
		{"NTRX", 7, 0xdf94c3082e0cb68e},
		{"Webserver", 42, 0x02ae0583427211fc},
		{"Webserver", 7, 0x62cc97a0171add12},
		{"Varmail", 42, 0xd147a4609e8155d8},
		{"Varmail", 7, 0xa1b78cdcfcd91516},
		{"Fileserver", 42, 0xbe42b3b6b678d041},
		{"Fileserver", 7, 0x14414210907f0faa},
	}
	profiles := map[string]Profile{}
	for _, p := range All() {
		profiles[p.Name] = p
	}
	for _, c := range pinned {
		g, err := New(profiles[c.name], 1<<20, 100_000, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		// FNV-1a over each request's arrival, op, first page and length.
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= uint64(byte(v >> (8 * i)))
				h *= 1099511628211
			}
		}
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			mix(uint64(r.Arrival))
			mix(uint64(r.Op))
			mix(uint64(r.Page))
			mix(uint64(r.Pages))
		}
		if h != c.hash {
			t.Errorf("%s seed %d: stream hash %#016x, pinned %#016x", c.name, c.seed, h, c.hash)
		}
	}
}
