package nand

import (
	"math"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/rel"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/vth"
)

// skewedModel is a valid surface on which BER is not monotone in age: state
// 1 sits just under its upper reference, so early charge loss pulls it clear
// of that reference faster than it pushes it toward the lower one. The
// bracket must stay exact on it — it bounds the BER over a box term by term
// and assumes nothing about the surface's shape.
func skewedModel() rel.Model {
	m := rel.Derive(vth.DefaultParams())
	m.Refs[1] = m.Levels[1] + 0.02*(m.Levels[2]-m.Levels[1])
	m.RetentionSigmaPerYear = 0
	return m
}

func bracketTestModels() map[string]rel.Model {
	return map[string]rel.Model{
		"mlc":    rel.Derive(vth.DefaultParams()),
		"tlc":    rel.Derive(vth.EvenParams(3)),
		"skewed": skewedModel(),
	}
}

// oracle is the definition relClassify must reproduce.
func oracle(rc *rel.Config, pageBytes, erase int, age sim.Time, reads uint64, u float64) rel.Outcome {
	return rc.ReadOutcome(rc.Model.BER(erase, age, reads), pageBytes, u)
}

// bucketBounds returns the inclusive age and read-count range of the table
// bucket holding (age, reads).
func bucketBounds(age sim.Time, reads uint64) (ageLo, ageHi sim.Time, readsLo, readsHi uint64) {
	ageLo = age &^ (1<<relAgeShift - 1)
	readsLo = reads &^ (1<<relReadsShift - 1)
	return ageLo, ageLo | (1<<relAgeShift - 1), readsLo, readsLo | (1<<relReadsShift - 1)
}

// TestRelBracketDifferential drives relClassify with over a million reads
// and asserts every outcome equals ReadOutcome(Model.BER(...)): three models,
// five erase counts, three ladder depths, ages from zero to ten years and
// read counts up to a million, both clustered across bucket edges, with the
// sample drawn uniformly and also planted on, one ulp below and one ulp above
// every rung of both of the bucket's ladders.
func TestRelBracketDifferential(t *testing.T) {
	anchors := 48
	if testing.Short() {
		anchors = 4
	}
	if m := skewedModel(); m.Validate() != nil || m.BER(3000, rel.Year/4, 0) >= m.BER(3000, 0, 0) {
		t.Fatal("the skewed model is invalid or monotone in age: the third model no longer tests anything")
	}
	var total, fromBracket int64
	for name, model := range bracketTestModels() {
		for _, retries := range []int{0, 1, 4} {
			rc := rel.DefaultConfig(11)
			rc.Model = model
			rc.MaxRetries = retries
			d := relDevice(t, rc)
			pageBytes := d.Geometry().PageSizeBytes
			src := rng.New(uint64(len(name)*131 + retries))
			check := func(erase int, age sim.Time, reads uint64, u float64) {
				t.Helper()
				got := d.relClassify(int(reads)%d.Geometry().Chips(), erase, age, reads, u)
				if want := oracle(&rc, pageBytes, erase, age, reads, u); got != want {
					t.Fatalf("%s retries=%d erase=%d age=%d reads=%d u=%v (bits %#x): device %+v, exact %+v",
						name, retries, erase, age, reads, u, math.Float64bits(u), got, want)
				}
				total++
			}
			for _, erase := range []int{0, 3000, 4500, 6000, 20000} {
				for a := 0; a < anchors; a++ {
					// An age-bucket edge anywhere in ten years (every fourth
					// anchor at age zero's bucket) and a read-bucket edge.
					ageEdge := sim.Time(src.Int63n(int64(10*rel.Year)>>relAgeShift)+1) << relAgeShift
					if a%4 == 0 {
						ageEdge = 1 << relAgeShift
					}
					readsEdge := uint64(src.Int63n(1_000_000>>relReadsShift)+1) << relReadsShift
					point := func() (sim.Time, uint64) {
						// Within a few steps of both edges, on either side.
						return ageEdge + sim.Time(src.Int63n(7)-3)*sim.Time(src.Int63n(1<<relAgeShift/3)+1),
							readsEdge + uint64(src.Int63n(2*(1<<relReadsShift))) - 1<<relReadsShift
					}
					for i := 0; i < 400; i++ {
						age, reads := point()
						check(erase, age, reads, src.Float64())
					}
					// Planted samples: every rung of the ladders that bound
					// each of the four buckets meeting at the two edges, read
					// at the bucket's corners and at points inside it.
					for _, age := range []sim.Time{ageEdge - 1, ageEdge} {
						for _, reads := range []uint64{readsEdge - 1, readsEdge} {
							ageLo, ageHi, readsLo, readsHi := bucketBounds(age, reads)
							berLo, berHi := rc.Model.BERBounds(erase, ageLo, ageHi, readsLo, readsHi)
							for _, ber := range []float64{berLo, berHi} {
								l := rc.Ladder(ber, pageBytes)
								for _, rung := range l.Rungs() {
									for _, u := range []float64{math.Nextafter(rung, 0), rung, math.Nextafter(rung, 1)} {
										if u < 0 || u >= 1 {
											continue
										}
										check(erase, ageLo, readsLo, u)
										check(erase, ageHi, readsHi, u)
										check(erase, ageLo+sim.Time(src.Int63n(1<<relAgeShift)), readsLo+uint64(src.Int63n(1<<relReadsShift)), u)
									}
								}
							}
						}
					}
				}
			}
			hits, _, _ := d.RelTableStats()
			fromBracket += hits
		}
	}
	t.Logf("%d reads, %d answered by a bracket", total, fromBracket)
	if !testing.Short() && total < 1_000_000 {
		t.Errorf("only %d reads compared, want at least 10^6", total)
	}
	if fromBracket < total/2 {
		t.Errorf("brackets answered %d of %d reads: the comparison mostly ran exact against exact", fromBracket, total)
	}
}

// FuzzRelBracket lets the fuzzer pick the whole read: erase count, age, read
// count and the sample's bit pattern.
func FuzzRelBracket(f *testing.F) {
	f.Add(uint16(6000), int64(120*sim.Second), uint64(77), math.Float64bits(0.5), uint8(4))
	f.Add(uint16(3000), int64(rel.Year), uint64(0), math.Float64bits(0), uint8(0))
	f.Add(uint16(0), int64(0), uint64(1<<relReadsShift-1), math.Float64bits(math.Nextafter(1, 0)), uint8(1))
	f.Add(uint16(20000), int64(10*rel.Year), uint64(1_000_000), uint64(1)<<52, uint8(9))
	devices := map[uint8]*Device{}
	f.Fuzz(func(t *testing.T, erase uint16, age int64, reads uint64, ubits uint64, retries uint8) {
		u := math.Float64frombits(ubits)
		if !(u >= 0 && u < 1) {
			u = float64(ubits>>11) / (1 << 53)
		}
		age &= math.MaxInt64
		retries %= 10 // past MaxRungs-2 the stored ladder is a prefix
		d := devices[retries]
		if d == nil {
			rc := rel.DefaultConfig(5)
			rc.MaxRetries = int(retries)
			d = relDevice(t, rc)
			devices[retries] = d
		}
		rc := d.Reliability()
		got := d.relClassify(0, int(erase), sim.Time(age), reads, u)
		if want := oracle(rc, d.Geometry().PageSizeBytes, int(erase), sim.Time(age), reads, u); got != want {
			t.Fatalf("erase=%d age=%d reads=%d u=%v retries=%d: device %+v, exact %+v", erase, age, reads, u, retries, got, want)
		}
	})
}

// TestRelClassifyZeroAllocs: neither a table hit, a table miss (a bracket is
// built) nor a fallback to the exact evaluation allocates.
func TestRelClassifyZeroAllocs(t *testing.T) {
	d := relDevice(t, rel.DefaultConfig(3))
	_, fills0, _ := d.RelTableStats()
	age := sim.Time(0)
	if n := alloctest.Count(100, func() {
		age += 1 << relAgeShift
		d.relClassify(1, 6000, age, 9, 0.25)
	}); n != 0 {
		t.Errorf("100 table misses allocate %d times", n)
	}
	if _, fills, _ := d.RelTableStats(); fills-fills0 < 100 {
		t.Errorf("%d brackets built over 100+ age buckets: the reads were not misses", fills-fills0)
	}
	// A sample planted on a rung falls between the bracket's two ladders.
	_, _, fb0 := d.RelTableStats()
	rc := d.Reliability()
	l := rc.Ladder(rc.Model.BER(6000, age, 9), d.Geometry().PageSizeBytes)
	u := l.Rungs()[1]
	if n := alloctest.Count(100, func() { d.relClassify(1, 6000, age, 9, u) }); n != 0 {
		t.Errorf("100 fallbacks allocate %d times", n)
	}
	if _, _, fb := d.RelTableStats(); fb-fb0 < 100 {
		t.Errorf("%d fallbacks over 100+ reads planted on a rung", fb-fb0)
	}
}
