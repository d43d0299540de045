// Package parityftl holds the scheme-level tests of ftl.NewParityFTL.
package parityftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/ftltest"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

func fixture(t testing.TB) ftltest.Fixture {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(),
		Timing:   nand.DefaultTiming(),
		Rules:    core.FPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewParityFTL(dev, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ftltest.Fixture{F: f, B: f.Base}
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, fixture)
}

func TestName(t *testing.T) {
	if fixture(t).F.Name() != "parityFTL" {
		t.Error("name wrong")
	}
}

// TestBackupRatio: the pre-backup scheme writes one parity page per
// ftl.FPSParityPairSize LSB pages, i.e. backup writes ~= (LSB programs)/2 —
// the paper's "at most two LSB pages share a parity backup page" bound.
func TestBackupRatio(t *testing.T) {
	fx := fixture(t)
	src := rng.New(3)
	logical := fx.F.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, err := fx.F.Write(ftl.LPN(src.Int63n(logical)), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := fx.F.Stats()
	lsbPrograms := st.HostWritesLSB + st.GCCopiesLSB
	if st.BackupWrites == 0 {
		t.Fatal("no backup writes recorded")
	}
	ratio := float64(st.BackupWrites) / float64(lsbPrograms)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("backup/LSB ratio = %.3f, want ~0.5 (1 parity per %d LSB pages)", ratio, ftl.FPSParityPairSize)
	}
}

// TestMoreErasesThanPageFTL: backup traffic consumes pages, so for the same
// host workload parityFTL must erase more blocks than a backup-less baseline
// would — the Figure 8(b) effect in miniature. We approximate the baseline
// by comparing against the no-backup program count.
func TestBackupInflatesWriteAmplification(t *testing.T) {
	fx := fixture(t)
	src := rng.New(9)
	logical := fx.F.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, err := fx.F.Write(ftl.LPN(src.Int63n(logical)), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := fx.F.Stats()
	withoutBackup := float64(st.HostWrites+st.GCCopies) / float64(st.HostWrites)
	withBackup := st.WriteAmplification()
	if withBackup <= withoutBackup {
		t.Errorf("backup did not inflate write amplification: %v <= %v", withBackup, withoutBackup)
	}
	// Roughly: backups add ~0.25 per host write (0.5 per LSB, LSB = half of
	// programs). Sanity-check the order of magnitude.
	if delta := withBackup - withoutBackup; delta < 0.1 || delta > 0.5 {
		t.Errorf("backup overhead %.3f programs/host write outside [0.1,0.5]", delta)
	}
}

func TestBackupBlocksRecycled(t *testing.T) {
	// Long runs must not leak backup blocks: free+full+active+backup stays
	// constant, so sustained writing keeps succeeding (covered) and the
	// backup ring depth stays <= 2 per chip.
	fx := fixture(t)
	f := fx.F.(*ftl.Kernel)
	src := rng.New(11)
	logical := fx.F.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 4*logical; i++ {
		done, err := fx.F.Write(ftl.LPN(src.Int63n(logical)), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for c := 0; c < fx.F.Device().Geometry().Chips(); c++ {
		depth := 0
		for _, b := range f.Snapshot().Chips[c].Ring {
			if b != -1 {
				depth++
			}
		}
		if depth > 2 {
			t.Errorf("chip %d backup ring depth %d", c, depth)
		}
	}
}
