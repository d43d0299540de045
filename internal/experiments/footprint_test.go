package experiments

import (
	"math"
	"runtime"
	"testing"
)

// maxBytesPerPage bounds the heap a flexFTL build on EvalGeometry holds per
// physical page: the 10-byte page record, its program-state bit, one
// validity bit, 4 bytes per logical page of forward map (3.5 per physical
// page), and the per-block state (about 1.3). Measured at 15.18 on amd64
// (19.08 with a 14-byte record that stored a data page's LPN twice, 22.08
// with a 17-byte record and a 12-byte token, 27.95 with a 19-byte record
// and a 4-byte inverse map, 36.5 with a 27-byte record and a program-state
// byte, 57.0 when the record was 40 bytes and the map int64); a byte added
// to pagemem.Page, a widened map or an inverse map in RAM crosses it.
const maxBytesPerPage = 15.5

// TestPageStateFootprint guards the per-page state a device and its FTL
// keep, the figure that scales with the device. Anything else the process
// allocates meanwhile only adds to a reading, so it keeps the least of three.
func TestPageStateFootprint(t *testing.T) {
	g := EvalGeometry()
	perPage := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		// Two collections: objects the first one only moves to sync.Pool's
		// victim cache are freed by the second, not during the build.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := BuildFTL("flexFTL", g)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(f)
		perPage = min(perPage, float64(after.HeapAlloc-before.HeapAlloc)/float64(g.TotalPages()))
	}
	t.Logf("flexFTL on %v holds %.2f B per physical page", g, perPage)
	if perPage > maxBytesPerPage {
		t.Errorf("flexFTL holds %.2f B per physical page, want <= %g", perPage, maxBytesPerPage)
	}
}
