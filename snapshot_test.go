package flexftl_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// censusGen runs the kernel's block census before every request the runner
// draws, checks that scribbling over a snapshot leaves the next one
// untouched, and notes which holder kinds the census saw.
type censusGen struct {
	workload.Generator
	t    *testing.T
	k    *ftl.Kernel
	n    int
	seen map[string]bool
}

func (g *censusGen) Next() (workload.Request, bool) {
	s := g.k.Snapshot()
	if err := s.CheckBlocks(g.k.Pools, g.k.Dev); err != nil {
		g.t.Fatalf("before request %d: %v", g.n, err)
	}
	before, _ := json.Marshal(s)
	for _, ch := range s.Chips {
		for _, st := range ch.Streams {
			g.seen["slow queue"] = g.seen["slow queue"] || len(st.SlowQueue) > 0
			for i := range st.SlowQueue {
				st.SlowQueue[i] = -7
			}
		}
		g.seen["active block"] = g.seen["active block"] || len(ch.Open) > 0
		for i := range ch.Open {
			ch.Open[i] = -7
		}
		g.seen["retired backup"] = g.seen["retired backup"] || len(ch.RetiredBackups) > 0
		for i := range ch.RetiredBackups {
			ch.RetiredBackups[i].Block = -7
		}
		g.seen["backup ring"] = g.seen["backup ring"] || ch.Ring[0] != -1
		if ch.LastMSB != nil {
			ch.LastMSB.LPN = -7
		}
	}
	if after, _ := json.Marshal(g.k.Snapshot()); string(after) != string(before) {
		g.t.Fatalf("before request %d: mutating a snapshot changed the next one", g.n)
	}
	g.n++
	return g.Generator.Next()
}

// TestSnapshotOnlyObserves: under every MLC registry scheme, a short NTRX run
// with a snapshot and the exact block census before every request is
// DeepEqual to the plain run. The small device fills backup blocks, so every
// holder kind but the background-GC victim (TestBlockCensusNamesPlantedFaults
// catches one in flight) is exercised.
func TestSnapshotOnlyObserves(t *testing.T) {
	seen := map[string]bool{}
	for _, scheme := range ftl.Names() {
		run := func(observe bool) (ssd.RunResult, bool) {
			h, err := ftl.Build(scheme, ftl.BuildEnv{
				Geometry: nand.TestGeometry(),
				Config:   ftl.DefaultConfig(),
				Flex:     ftl.DefaultFlexParams(),
			})
			if err != nil {
				t.Fatal(err)
			}
			k, ok := h.(*ftl.Kernel)
			if !ok {
				return ssd.RunResult{}, false // nflexTLC: not a Kernel
			}
			sys, err := ssd.New(h, ssd.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Prefill(); err != nil {
				t.Fatal(err)
			}
			gen, err := workload.New(workload.NTRX(), h.LogicalPages(), 3000, 42)
			if err != nil {
				t.Fatal(err)
			}
			if observe {
				gen = &censusGen{Generator: gen, t: t, k: k, seen: seen}
			}
			res, err := sys.Run(gen)
			if err != nil {
				t.Fatal(err)
			}
			return res, true
		}
		plain, ok := run(false)
		if !ok {
			continue
		}
		if observed, _ := run(true); !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: snapshots and census changed the run", scheme)
		}
	}
	for _, kind := range []string{"slow queue", "active block", "retired backup", "backup ring"} {
		if !seen[kind] {
			t.Errorf("no run held a block as %s; the census went unexercised there", kind)
		}
	}
}
