package nand

import (
	"fmt"
	"slices"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// TestProgramPPNMatchesCheckThenMark pins ProgramPPN's single order check:
// over random program sequences on RPS and FPS devices at Levels 2 and 3 —
// legal next pages, arbitrary probes (double programs and order violations
// included), oversized payloads and erases — ProgramPPN accepts exactly the
// programs a shadow BlockState's Check accepts, the shadow's Mark then
// agrees with the device's state bit for bit, and a rejected program leaves
// the block's state and every page record of it untouched.
func TestProgramPPNMatchesCheckThenMark(t *testing.T) {
	for _, rules := range []core.RuleSet{core.RPS, core.FPS} {
		for levels := 2; levels <= 3; levels++ {
			t.Run(fmt.Sprintf("%s/levels=%d", rules.Name(), levels), func(t *testing.T) {
				cfg := levelConfig(levels)
				cfg.Rules = rules
				d, err := NewDevice(cfg)
				if err != nil {
					t.Fatal(err)
				}
				programCheckSequence(t, d, rules, uint64(levels))
			})
		}
	}
}

func programCheckSequence(t *testing.T, d *Device, rules core.RuleSet, seed uint64) {
	t.Helper()
	g := d.Geometry()
	scheme, ppb := g.Scheme(), g.PagesPerBlock()
	const blocks = 4 // few blocks, so sequences run long enough to fill them
	shadow := make([]*core.BlockState, blocks)
	for i := range shadow {
		shadow[i] = core.NewBlockState(scheme)
	}
	src := rng.New(seed)
	oversize := make([]byte, g.PageSizeBytes+1)
	now := sim.Time(0)
	accepted, rejected, fills := 0, 0, 0
	for op := 0; op < 6000; op++ {
		flat := src.Intn(blocks)
		a := d.lay.BlockOfFlat(flat)
		sh := shadow[flat]
		if src.Intn(100) < 2 || sh.Full() {
			if sh.Full() {
				fills++
			}
			done, err := d.Erase(a, now)
			if err != nil {
				t.Fatalf("op %d: erase %v: %v", op, a, err)
			}
			now = done
			sh.Reset()
			continue
		}
		var p core.Page
		if src.Bool(0.5) {
			// A page the shadow's Check accepts, when one exists.
			var legal []core.Page
			for wl := 0; wl < scheme.WordLines; wl++ {
				for l := 0; l < scheme.Levels; l++ {
					if q := (core.Page{WL: wl, Type: core.PageType(l)}); rules.Check(sh, q) == nil {
						legal = append(legal, q)
					}
				}
			}
			p = legal[src.Intn(len(legal))]
		} else {
			p = core.Page{WL: src.Intn(scheme.WordLines), Type: core.PageType(src.Intn(scheme.Levels))}
		}
		data := []byte{byte(op), byte(op >> 8)}
		if src.Intn(20) == 0 {
			data = oversize
		}
		ppn := d.lay.PPNOf(PageAddr{BlockAddr: a, Page: p})
		base := d.lay.PPN(a.Chip, a.Block, 0)
		state := &d.blocks[flat].state
		wordsBefore := stateWords(state, scheme)
		programmedBefore := state.Programmed()
		recordsBefore := slices.Clone(d.pages[base : base+PPN(ppb)])

		want := rules.Check(sh, p)
		if want == nil && len(data) > g.PageSizeBytes {
			want = fmt.Errorf("oversized payload")
		}
		done, err := d.ProgramPPN(ppn, data, nil, now)
		if (err == nil) != (want == nil) {
			t.Fatalf("op %d: ProgramPPN(%v) err = %v, Check + payload check = %v", op, PageAddr{BlockAddr: a, Page: p}, err, want)
		}
		if err != nil {
			rejected++
			if !slices.Equal(stateWords(state, scheme), wordsBefore) || state.Programmed() != programmedBefore {
				t.Fatalf("op %d: rejected program of %v changed the block state", op, p)
			}
			if !slices.Equal(d.pages[base:base+PPN(ppb)], recordsBefore) {
				t.Fatalf("op %d: rejected program of %v changed a page record", op, p)
			}
			continue
		}
		accepted++
		now = done
		sh.Mark(p)
		if !slices.Equal(stateWords(state, scheme), stateWords(sh, scheme)) || state.Programmed() != sh.Programmed() {
			t.Fatalf("op %d: device state after %v disagrees with Check + Mark", op, p)
		}
		var buf PageBuf
		if _, err := d.ReadPPN(ppn, &buf, now); err != nil || !slices.Equal(buf.Data, data) {
			t.Fatalf("op %d: read back %v = %v, %v; want %v", op, p, buf.Data, err, data)
		}
	}
	if accepted < 500 || rejected < 500 || fills < 10 {
		t.Fatalf("sequence too tame: %d accepted, %d rejected, %d blocks filled", accepted, rejected, fills)
	}
}

// stateWords lays a block state's per-page answers out as a bitmap, one bit
// per page index.
func stateWords(sh *core.BlockState, scheme core.Scheme) []uint64 {
	words := make([]uint64, core.BitmapWords(scheme))
	for wl := 0; wl < scheme.WordLines; wl++ {
		for l := 0; l < scheme.Levels; l++ {
			p := core.Page{WL: wl, Type: core.PageType(l)}
			if sh.Written(p) {
				idx := p.Index(scheme.WordLines)
				words[idx>>6] |= 1 << (idx & 63)
			}
		}
	}
	return words
}
