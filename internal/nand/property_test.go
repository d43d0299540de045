package nand

import (
	"testing"
	"testing/quick"

	"flexftl/internal/core"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestDeviceRandomOpsProperty drives a device with random legal operations
// and checks global invariants: completion times never precede issue times,
// per-chip timelines are monotone, programmed counts match issued programs,
// and payloads always read back exactly as written.
func TestDeviceRandomOpsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		d, err := NewDevice(levelConfig(2 + int(seed%3))) // MLC, TLC or QLC
		if err != nil {
			return false
		}
		g := d.Geometry()
		// Per-block cursor into the n-phase order; payload journal.
		type blockState struct {
			pos int
		}
		order := core.RelaxedFullOrder(g.Scheme())
		cursors := map[BlockAddr]*blockState{}
		written := map[PageAddr]byte{}
		now := sim.Time(0)
		var programs, erases int64

		for op := 0; op < 400; op++ {
			chip := src.Intn(g.Chips())
			blk := src.Intn(g.BlocksPerChip)
			ba := BlockAddr{Chip: chip, Block: blk}
			cur, ok := cursors[ba]
			if !ok {
				cur = &blockState{}
				cursors[ba] = cur
			}
			switch {
			case src.Bool(0.6) && cur.pos < len(order):
				// Program the next page of the block's 2PO order.
				payload := byte(src.Intn(256))
				a := PageAddr{BlockAddr: ba, Page: order[cur.pos]}
				done, err := d.Program(a, []byte{payload}, nil, now)
				if err != nil {
					t.Logf("program %v: %v", a, err)
					return false
				}
				if done < now {
					return false
				}
				written[a] = payload
				cur.pos++
				programs++
				now = done - sim.Time(src.Intn(int(d.Timing().ProgLSB))) // overlap issues
				if now < 0 {
					now = 0
				}
			case src.Bool(0.5) && cur.pos > 0:
				// Read a random programmed page of the block.
				idx := src.Intn(cur.pos)
				a := PageAddr{BlockAddr: ba, Page: order[idx]}
				data, _, done, err := read(d, a, now)
				if err != nil {
					return false
				}
				if done < now {
					return false
				}
				if len(data) != 1 || data[0] != written[a] {
					t.Logf("payload mismatch at %v", a)
					return false
				}
			default:
				done, err := d.Erase(ba, now)
				if err != nil {
					return false
				}
				if done < now {
					return false
				}
				for idx := 0; idx < cur.pos; idx++ {
					delete(written, PageAddr{BlockAddr: ba, Page: order[idx]})
				}
				cur.pos = 0
				erases++
			}
		}
		counts := d.Counts()
		if counts.Programs() != programs || counts.Erases != erases {
			t.Logf("counter drift: device %+v vs journal %d/%d", counts, programs, erases)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
