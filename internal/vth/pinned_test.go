package vth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/rng"
)

// digest folds every number a block simulation reports into 64 bits: FNV-1a
// over the IEEE bits of each word line's WPSum and BER, its aggressor count,
// and the block's total bit errors.
func digest(r BlockResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, w := range r.WordLines {
		put(math.Float64bits(w.WPSum))
		put(math.Float64bits(w.BER))
		put(uint64(w.Aggressors))
	}
	put(uint64(r.TotalErrs))
	return h.Sum64()
}

// TestDrawOrderPinned pins the RNG draw order of the one simulator. The
// digests were recorded from the two simulators this package had before they
// were merged (vth.Model for the Figure 1 MLC cell, vth.NLevelModel for the
// even cells) at 16 word lines x 256 cells: any change to which draw feeds
// which cell, to a level, a read reference or the error count moves them.
func TestDrawOrderPinned(t *testing.T) {
	const wl, cells = 16, 256
	mlcOrders := map[string][]core.Page{
		"FPS": core.FPSOrder(wl), "RPSfull": core.RPSFullOrder(wl),
		"RPShalf": core.RPSHalfOrder(wl), "worst": core.WorstCaseOrder(core.MLC(wl)),
	}
	models := map[string]*Model{}
	for name, p := range map[string]Params{
		"mlc2": DefaultParams(), "even2": EvenParams(2), "even3": EvenParams(3), "even4": EvenParams(4),
	} {
		p.CellsPerWordLine = cells
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
	}
	for _, c := range []struct {
		cell   string
		bits   int
		order  string
		stress StressCondition
		seed   uint64
		want   uint64
	}{
		{"mlc", 2, "FPS", Fresh, 1, 0x167e192c705c537c},
		{"mlc", 2, "FPS", Fresh, 2, 0x4370165e95c0a9ca},
		{"mlc", 2, "FPS", WorstCase, 1, 0xf144d871183853ea},
		{"mlc", 2, "FPS", WorstCase, 2, 0x78007aab2a9c690d},
		{"mlc", 2, "RPSfull", Fresh, 1, 0xeaf938ecb3f499d9},
		{"mlc", 2, "RPSfull", Fresh, 2, 0x2d3eae7a8219f73a},
		{"mlc", 2, "RPSfull", WorstCase, 1, 0x34e7e1158f93d1ba},
		{"mlc", 2, "RPSfull", WorstCase, 2, 0x86cf4ae100b03747},
		{"mlc", 2, "RPShalf", Fresh, 1, 0x7240c232a6a539a6},
		{"mlc", 2, "RPShalf", Fresh, 2, 0xb262f2195137ff97},
		{"mlc", 2, "RPShalf", WorstCase, 1, 0x1a74d68edea973cb},
		{"mlc", 2, "RPShalf", WorstCase, 2, 0x43cc32934bcae07b},
		{"mlc", 2, "worst", Fresh, 1, 0xa2a9d0773c65f59f},
		{"mlc", 2, "worst", Fresh, 2, 0x1c1fd7fa51eaeb35},
		{"mlc", 2, "worst", WorstCase, 1, 0xcb60cca21c81026b},
		{"mlc", 2, "worst", WorstCase, 2, 0x66d63e2ebf48ec9e},
		{"even", 2, "fixed", Fresh, 1, 0xb7e56dcc5560bfc0},
		{"even", 2, "fixed", Fresh, 2, 0xfd36abe934831809},
		{"even", 2, "fixed", WorstCase, 1, 0x8533eab34e1ae517},
		{"even", 2, "fixed", WorstCase, 2, 0xf66bacc26ee84615},
		{"even", 2, "relaxed", Fresh, 1, 0x5ade4133f23408c8},
		{"even", 2, "relaxed", Fresh, 2, 0x92c19aa92b5d9c6e},
		{"even", 2, "relaxed", WorstCase, 1, 0x4bacec3f6837ef5a},
		{"even", 2, "relaxed", WorstCase, 2, 0x8cb7d25f362821ac},
		{"even", 2, "worst", Fresh, 1, 0x884f03cb2a6f1011},
		{"even", 2, "worst", Fresh, 2, 0xd839551e5ac48e22},
		{"even", 2, "worst", WorstCase, 1, 0x92bd73f485a5e567},
		{"even", 2, "worst", WorstCase, 2, 0x3496b6d9529e9c96},
		{"even", 3, "fixed", Fresh, 1, 0x739462cc5bdd7b8c},
		{"even", 3, "fixed", Fresh, 2, 0x7a2e28a85fd52b10},
		{"even", 3, "fixed", WorstCase, 1, 0xb3db96e174e7369d},
		{"even", 3, "fixed", WorstCase, 2, 0x8fed2f9661ac6ec2},
		{"even", 3, "relaxed", Fresh, 1, 0x7acc731ed9d96af5},
		{"even", 3, "relaxed", Fresh, 2, 0xa6993662ec369a09},
		{"even", 3, "relaxed", WorstCase, 1, 0xe0ba0e83e737f46b},
		{"even", 3, "relaxed", WorstCase, 2, 0x2bb31f78f79a259f},
		{"even", 3, "worst", Fresh, 1, 0xce981dce32ab0dea},
		{"even", 3, "worst", Fresh, 2, 0x4467d7c3c539daab},
		{"even", 3, "worst", WorstCase, 1, 0x8b140350c7e0e263},
		{"even", 3, "worst", WorstCase, 2, 0x4e756ec8c859731d},
		{"even", 4, "fixed", Fresh, 1, 0xdfa0b6328cbb2c85},
		{"even", 4, "fixed", Fresh, 2, 0x62a048f950debcd9},
		{"even", 4, "fixed", WorstCase, 1, 0x12ce81bfdf6ff0a6},
		{"even", 4, "fixed", WorstCase, 2, 0x8cb1690e16f0bf77},
		{"even", 4, "relaxed", Fresh, 1, 0x147dd2a6d87024b3},
		{"even", 4, "relaxed", Fresh, 2, 0x01c7a558014c5897},
		{"even", 4, "relaxed", WorstCase, 1, 0x52dca9181d0bec86},
		{"even", 4, "relaxed", WorstCase, 2, 0x57d31241071ccedb},
		{"even", 4, "worst", Fresh, 1, 0x0969040f7ffebf84},
		{"even", 4, "worst", Fresh, 2, 0x04337c59e361e88b},
		{"even", 4, "worst", WorstCase, 1, 0x719d00d4941aed44},
		{"even", 4, "worst", WorstCase, 2, 0xfc03103cfa27f40e},
	} {
		s := core.Scheme{Levels: c.bits, WordLines: wl}
		var order []core.Page
		switch {
		case c.cell == "mlc":
			order = mlcOrders[c.order]
		case c.order == "fixed":
			order = core.FixedOrder(s)
		case c.order == "relaxed":
			order = core.RelaxedFullOrder(s)
		default:
			order = core.WorstCaseOrder(s)
		}
		res, err := models[c.cell+string(rune('0'+c.bits))].SimulateBlock(s, order, c.stress, rng.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(res); got != c.want {
			t.Errorf("%s bits=%d %s %+v seed %d: digest %#016x, want %#016x", c.cell, c.bits, c.order, c.stress, c.seed, got, c.want)
		}
	}
}
