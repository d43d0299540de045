// Shard-equivalence guard for the reliability path: with the BER model
// mounted and the kernel's responses enabled on a pre-worn device, RunSharded
// at workers=N must still reproduce workers=1 exactly — read outcomes are a
// pure function of chip-local state (wear, retention age, read-disturb count,
// and the per-read hash), so sharding by channel cannot change them. Run
// under -race this also proves the reliability counters and the lost-page pin
// share no unsynchronized state. The disabled path needs no new guard: with
// Config.Reliability nil the kernel byte-matches the pre-reliability goldens
// (equivalence_test.go).
package flexftl_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/rel"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// buildRelShardSystem builds a scheme over a reliability-modelled device,
// pre-wears every block so the model's retry ladder actually engages during
// the run, and prefills.
func buildRelShardSystem(t *testing.T, scheme string, preWear int) (*ssd.System, ftl.Host) {
	t.Helper()
	g := experiments.EvalGeometry()
	g.BlocksPerChip = 32
	c := experiments.Setup{Geometry: g}.Cell(scheme, workload.Fileserver())
	rc := rel.DefaultConfig(7)
	c.Env.Reliability = &rc
	c.Env.Config.Reliability = ftl.DefaultRelPolicy()
	c.PreWear = preWear
	c.SSD.PrefillFraction = 0.88
	c.SSD.BufferPages = 512
	sys, err := c.System()
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.F
}

// TestShardEquivalenceReliability pins RunSharded(N) == RunSharded(1) with
// the reliability loop live, and that the comparison is non-vacuous: the runs
// must classify reads and exercise the retry ladder.
func TestShardEquivalenceReliability(t *testing.T) {
	const preWear = 6000
	for _, scheme := range []string{"pageFTL", "flexFTL"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			capture := func(workers int) shardSnapshot {
				sys, h := buildRelShardSystem(t, scheme, preWear)
				gen, err := workload.New(workload.Fileserver(), h.LogicalPages(), 8000, 42)
				if err != nil {
					t.Fatal(err)
				}
				run, err := sys.RunSharded(gen, workers)
				if err != nil {
					t.Fatal(err)
				}
				return snapshotOutcome(h, run)
			}
			serial := capture(1)
			rep := serial.Run.Reliability
			if rep == nil {
				t.Fatal("reliability-modelled run produced no reliability report")
			}
			if rep.Reads == 0 || rep.RetriedReads == 0 {
				t.Fatalf("pre-worn run never engaged the retry ladder — the guard is vacuous (report %+v)", rep)
			}
			for _, workers := range []int{2, 4} {
				sharded := capture(workers)
				if !reflect.DeepEqual(serial, sharded) {
					t.Errorf("workers=%d diverged from workers=1:\nserial:  %s\nsharded: %s",
						workers, relSnapString(serial), relSnapString(sharded))
				}
			}
		})
	}
}

// relSnapString renders a snapshot with the reliability report dereferenced
// (the default %+v prints the pointer, useless in a diff).
func relSnapString(s shardSnapshot) string {
	return fmt.Sprintf("{run=%+v rel=%+v maphash=%d free=%d counts=%+v}",
		s.Run.Stats, s.Run.Reliability, s.MapHash, s.FreeBlocks, s.Counts)
}
