package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestPackedRunMatchesSorted: a packed run answers atMost, at and sum, and its
// merge cursor walks its values, exactly as the sorted slice it was packed
// from, and it is no longer than its codes bound. Lengths are under a block
// (one value, two, half a block, one short), a block, one and two past, and
// a stage one short and full; values take every Rice parameter from 0 to 31
// (0 next to 2^32-1 in a block of two), sit on and around countMax, and hit
// the worst cases of the code: blocks of equal values (some spanning
// blocks), and blocks whose whole spread is one delta of (len-1)*m, the
// largest quotient a block can hold.
func TestPackedRunMatchesSorted(t *testing.T) {
	src := rng.New(5)
	shapes := []struct {
		name string
		draw func(i, n int) uint32
	}{
		{"random", func(int, int) uint32 { return uint32(src.Uint64() >> uint(32+src.Intn(33))) }},
		// Runs of equal values longer than a block, then a larger value.
		{"equal", func(i, n int) uint32 { return uint32(countMax + 300*(i/300)) }},
		{"all-equal", func(int, int) uint32 { return countMax }},
		{"extremes", func(i, n int) uint32 {
			if i%2 == 0 {
				return 0
			}
			return math.MaxUint32
		}},
		{"countMax", func(int, int) uint32 { return uint32(countMax - 1 + src.Intn(3)) }},
		{"saturated", func(i, n int) uint32 { return uint32(1<<30 + 1375*i + src.Intn(1<<13)) }},
		// Block b rises by one delta of 127<<(b%20) at its end.
		{"one-delta", func(i, n int) uint32 {
			b := i / blockLen
			if i%blockLen == blockLen-1 || i == n-1 {
				return uint32(b<<27 + 127<<(b%20))
			}
			return uint32(b << 27)
		}},
		// The last value is 2^32-1, the rest 0: k = 31 where the last block
		// holds two values.
		{"k31", func(i, n int) uint32 {
			if i == n-1 {
				return math.MaxUint32
			}
			return 0
		}},
	}
	for _, n := range []int{1, 2, 64, 127, 128, 129, 130, 4095, 4096} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s-n%d", sh.name, n), func(t *testing.T) {
				xs := make([]uint32, n)
				for i := range xs {
					xs[i] = sh.draw(i, n)
				}
				slices.Sort(xs)
				var a arena
				r := pack(slices.Clone(xs), &a)
				var sum uint64
				for _, x := range xs {
					sum += uint64(x)
				}
				if r.len() != n || r.first() != xs[0] || r.last() != xs[n-1] || r.sum() != sum {
					t.Fatalf("run holds n=%d first=%d last=%d sum=%d, want %d %d %d %d",
						r.len(), r.first(), r.last(), r.sum(), n, xs[0], xs[n-1], sum)
				}
				checkRunBound(t, r)
				// atMost on every value, its neighbours and both ends.
				probes := []uint32{0, 1, countMax - 1, countMax, math.MaxUint32 - 1, math.MaxUint32}
				for _, x := range xs {
					probes = append(probes, x-1, x, x+1)
				}
				for _, v := range probes {
					want := sort.Search(n, func(i int) bool { return xs[i] > v })
					if got := r.atMost(v, &runCursor{}); got != want {
						t.Fatalf("atMost(%d) = %d, want %d", v, got, want)
					}
				}
				// The merge cursor, in place, value by value.
				h := runHead{v: int64(r.first()), run: r, left: n - 1}
				for i, x := range xs {
					if h.v != int64(x) {
						t.Fatalf("cursor value %d = %d, want %d", i, h.v, x)
					}
					if more := h.next(); more != (i < n-1) {
						t.Fatalf("cursor after value %d: more = %v", i, more)
					}
				}
				runs := sortedRuns{&samples{runs: []packedRun{r}}}
				for k, x := range xs {
					if got := runs.at(k); got != int64(x) {
						t.Fatalf("at(%d) = %d, want %d", k, got, x)
					}
				}
				if got := runs.sum(); got != float64(sum) {
					t.Fatalf("sum = %v, want %d", got, sum)
				}
				if got := runs.mergedSum(); got != float64(sum) {
					t.Fatalf("merged sum = %v, want %d", got, sum)
				}
			})
		}
	}
}

// checkRunBound fails unless each block's code is the one its values call
// for and the run holds at most (len-1)(k+3) bits a coded block.
func checkRunBound(t *testing.T, r packedRun) {
	t.Helper()
	var bound uint
	for b := range r.blocks() {
		lo, hi := b*blockLen, min(r.len(), (b+1)*blockLen)
		blk := make([]uint32, 0, blockLen)
		var p uint
		for i, x := 0, r.first(); i < hi; i++ {
			if i > 0 {
				x = r.next(i, x, &p)
			}
			if i >= lo {
				blk = append(blk, x)
			}
		}
		_, c, _ := r.block(b)
		if want := riceCode(blk); c != want {
			t.Fatalf("block %d has code %d, want %d", b, c, want)
		}
		if c > 0 {
			bound += uint(len(blk)-1) * (c + 2)
		}
	}
	if words := len(r.deltas()); words > int(bound+63)/64 {
		t.Fatalf("run holds %d delta words, bound %d bits", words, bound)
	}
}

// FuzzPackedRun: a run packed from any sorted values answers atMost, at, sum
// and its merge cursor exactly as the sorted slice. Each 4 bytes of data is
// a value, shifted right by shift%33 so deltas take every Rice parameter.
//
//	go test -run '^$' -fuzz FuzzPackedRun -fuzztime 10s ./internal/metrics
func FuzzPackedRun(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(0))
	f.Add(make([]byte, 4*blockLen+4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		n := min(len(data)/4, stageLen)
		if n == 0 {
			return
		}
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(data[4*i:]) >> (shift % 33)
		}
		slices.Sort(xs)
		var a arena
		r := pack(slices.Clone(xs), &a)
		checkRunBound(t, r)
		var sum uint64
		for _, x := range xs {
			sum += uint64(x)
		}
		if r.sum() != sum {
			t.Fatalf("sum %d, want %d", r.sum(), sum)
		}
		for _, x := range xs {
			for _, v := range []uint32{x - 1, x, x + 1} {
				if want, got := sort.Search(n, func(i int) bool { return xs[i] > v }), r.atMost(v, &runCursor{}); got != want {
					t.Fatalf("atMost(%d) = %d, want %d", v, got, want)
				}
			}
		}
		h := runHead{v: int64(r.first()), run: r, left: n - 1}
		for i, x := range xs {
			if h.v != int64(x) {
				t.Fatalf("cursor value %d = %d, want %d", i, h.v, x)
			}
			h.next()
		}
		runs := sortedRuns{&samples{runs: []packedRun{r}}}
		for k, x := range xs {
			if got := runs.at(k); got != int64(x) {
				t.Fatalf("at(%d) = %d, want %d", k, got, x)
			}
		}
	})
}

// TestFewStoredSamplesAllocateAsBefore: a class that stores under one stage of
// samples allocates only its ramp of stages, and a summary allocates nothing,
// so it makes no more allocations than when a stored sample took 4 bytes in
// chunks: one chunk list, and chunks of 256, 512, ... samples up to the one
// holding the n-th, with a radix scratch at the summary for a chunk of 256 or
// more.
func TestFewStoredSamplesAllocateAsBefore(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{1, 255, 256, 257, 768, 769, 1000, 2048, 3840, 3841, 4095, stageLen} {
		before := uint64(1)
		for held, chunk := 0, 256; held < n; held, chunk = held+chunk, 2*chunk {
			before++
		}
		if n >= 256 {
			before++
		}
		allocs := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			c := NewCollector(4096, sim.Second)
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < n; i++ {
				c.RecordRead(1, 0, countMax+sim.Time(i*7919%n))
			}
			lat := c.Latency()
			runtime.ReadMemStats(&m1)
			allocs = min(allocs, m1.Mallocs-m0.Mallocs)
			if lat.Read.Count != int64(n) || lat.Read.Max != float64(countMax+n-1) {
				t.Fatalf("n=%d: read summary %+v", n, lat.Read)
			}
		}
		if allocs > before {
			t.Errorf("n=%d stored samples: %d allocations, want <= %d", n, allocs, before)
		}
	}
}
