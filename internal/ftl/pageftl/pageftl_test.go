// Package pageftl holds the scheme-level tests of ftl.NewPageFTL.
package pageftl

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/ftltest"
	"flexftl/internal/nand"
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
	f, err := ftl.NewPageFTL(dev, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ftltest.Fixture{F: f, B: f.Base}
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, fixture)
}

func TestName(t *testing.T) {
	if fixture(t).F.Name() != "pageFTL" {
		t.Error("name wrong")
	}
}

// TestFollowsFPSOrder: the device enforces FPS, so the fact that the
// conformance suite passes already proves legality; here we additionally
// check the LSB/MSB mix equals the canonical interleave (half LSB, half MSB
// over a full block fill).
func TestFollowsFPSOrder(t *testing.T) {
	fx := fixture(t)
	g := fx.F.Device().Geometry()
	perBlock := g.PagesPerBlock()
	chips := g.Chips()
	now := sim.Time(0)
	// Exactly enough host writes to fill one block per chip.
	for i := 0; i < perBlock*chips; i++ {
		done, err := fx.F.Write(ftl.LPN(i), now, 0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := fx.F.Stats()
	if st.HostWritesLSB != st.HostWritesMSB {
		t.Errorf("FPS fill not balanced: %d LSB vs %d MSB", st.HostWritesLSB, st.HostWritesMSB)
	}
	if st.BackupWrites != 0 {
		t.Errorf("pageFTL performed %d backup writes, want 0 (no-power-loss baseline)", st.BackupWrites)
	}
}

// TestNoBackupEver: across a long GC-heavy run pageFTL must never write a
// backup page.
func TestNoBackupEver(t *testing.T) {
	fx := fixture(t)
	logical := fx.F.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, err := fx.F.Write(ftl.LPN(i%logical), now, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if st := fx.F.Stats(); st.BackupWrites != 0 {
		t.Errorf("backup writes = %d", st.BackupWrites)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftl.NewPageFTL(dev, ftl.Config{OPFraction: 0, GCFreeFraction: 0.1, MinFreeBlocksPerChip: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}
