package ssd

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// TestInflightHeapProperty interleaves randomized pushes and pops on the
// runner's in-flight queue (sim.TimeHeap) and a sorted reference multiset of
// the same times, and demands that every pop returns the reference's minimum.
// Completion times are drawn from a small range so duplicates — the case where sift order
// bugs hide, because the comparison is false both ways — occur constantly.
func TestInflightHeapProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got sim.TimeHeap
		var ref []sim.Time // kept sorted ascending
		const ops = 5000
		for i := 0; i < ops; i++ {
			if got.Len() != len(ref) {
				t.Fatalf("seed %d op %d: size mismatch got=%d ref=%d", seed, i, got.Len(), len(ref))
			}
			// Bias toward pushes early so the heap grows, then drain.
			pushP := 60
			if i > ops*3/4 {
				pushP = 30
			}
			if got.Len() == 0 || rng.Intn(100) < pushP {
				done := sim.Time(rng.Intn(16)) // tight range: lots of duplicates
				got.Push(done)
				at, _ := slices.BinarySearch(ref, done)
				ref = slices.Insert(ref, at, done)
				continue
			}
			if g := got.Pop(); g != ref[0] {
				t.Fatalf("seed %d op %d: pop mismatch got %d, want %d", seed, i, g, ref[0])
			}
			ref = ref[1:]
		}
		// Drain completely; the tail must come out sorted too.
		for got.Len() > 0 {
			if len(ref) == 0 {
				t.Fatalf("seed %d: reference drained first", seed)
			}
			if g := got.Pop(); g != ref[0] {
				t.Fatalf("seed %d drain: pop mismatch got %d, want %d", seed, g, ref[0])
			}
			ref = ref[1:]
		}
		if len(ref) != 0 {
			t.Fatalf("seed %d: heap drained first (%d left in reference)", seed, len(ref))
		}
	}
}

// TestInflightHeapPopZeroesSlot pins what replaced the zeroed-slot contract:
// the heap element is a bare 8-byte time, so a vacated slot cannot keep a
// buffer entry reachable, and the entries themselves are accounted one for
// one — in flight, buffer occupancy and admitted entries agree at every
// request boundary, and a finished run leaves the buffer empty with every
// admitted page released.
func TestInflightHeapPopZeroesSlot(t *testing.T) {
	elem := reflect.TypeOf(sim.TimeHeap(nil)).Elem()
	if elem.Size() != 8 {
		t.Errorf("heap element is %d bytes, want 8", elem.Size())
	}
	if elem.Kind() != reflect.Int64 {
		t.Errorf("heap element is a %v, want a bare int64 time with no pointer", elem.Kind())
	}

	sys := newSystem(t, "flexFTL")
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.NTRX(), sys.F.LogicalPages(), 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rs := sys.newRunState()
	var pages int64
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		arrival := rs.base + req.Arrival
		if err := sys.prologue(rs, arrival); err != nil {
			t.Fatal(err)
		}
		if err := sys.stepOp(rs, req, arrival); err != nil {
			t.Fatal(err)
		}
		if req.Op == workload.OpWrite {
			pages += int64(req.Pages)
		}
		if occ := sys.buf.Occupied(); occ != sys.pending.Len() || occ != len(sys.admitted) {
			t.Fatalf("occupied %d, in flight %d, admitted entries %d", occ, sys.pending.Len(), len(sys.admitted))
		}
	}
	if _, err := sys.finishRun(rs, gen); err != nil {
		t.Fatal(err)
	}
	if sys.buf.Occupied() != 0 || sys.pending.Len() != 0 || len(sys.admitted) != 0 {
		t.Errorf("after the run: occupied %d, in flight %d, admitted entries %d", sys.buf.Occupied(), sys.pending.Len(), len(sys.admitted))
	}
	if sys.buf.Admitted() != pages {
		t.Errorf("admitted %d pages, want the %d written", sys.buf.Admitted(), pages)
	}
}
