package nand_test

import (
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rel"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// TestRelBracketAnswersAgedOLTP is the non-vacuity floor under the bracket
// table: on the cell the benchmark's oltp_aged_rel row runs — flexFTL, every
// block pre-worn 6000 P/E, OLTP — at least 99 % of the classified reads must
// be answered by a bracket. The outcome tests cannot see the table rot into
// an always-exact fallback; this can.
func TestRelBracketAnswersAgedOLTP(t *testing.T) {
	g := experiments.EvalGeometry()
	g.BlocksPerChip = 32
	rc := rel.DefaultConfig(42)
	cfg := ftl.DefaultConfig()
	cfg.Reliability = ftl.DefaultRelPolicy()
	f, err := ftl.BuildFTL("flexFTL", ftl.BuildEnv{Geometry: g, Config: cfg, Flex: ftl.DefaultFlexParams(), Reliability: &rc})
	if err != nil {
		t.Fatal(err)
	}
	dev := f.Device()
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			for i := 0; i < 6000; i++ {
				if _, err := dev.Erase(nand.BlockAddr{Chip: chip, Block: blk}, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sys, err := ssd.New(f, ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.OLTP(), f.LogicalPages(), 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(gen); err != nil {
		t.Fatal(err)
	}
	reads := dev.RelCounts().Reads
	hits, fills, fallbacks := dev.RelTableStats()
	t.Logf("%d classified reads: %d from a bracket, %d exact, %d brackets built", reads, hits, fallbacks, fills)
	if hits+fallbacks != reads {
		t.Errorf("%d bracket answers + %d exact answers != %d classified reads", hits, fallbacks, reads)
	}
	if reads < 10000 || dev.RelCounts().RetriedReads == 0 {
		t.Fatalf("the cell classified %d reads and retried %d: too few to mean anything", reads, dev.RelCounts().RetriedReads)
	}
	if float64(hits) < 0.99*float64(reads) {
		t.Errorf("brackets answered %d of %d reads, under 99 %%", hits, reads)
	}
}
