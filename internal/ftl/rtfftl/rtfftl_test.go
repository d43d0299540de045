// Package rtfftl holds the scheme-level tests of ftl.NewRTFFTL.
package rtfftl

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
	f, err := ftl.NewRTFFTL(dev, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ftltest.Fixture{F: f, B: f.Base, IdleConsumesFree: true}
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, fixture)
}

func TestName(t *testing.T) {
	if fixture(t).F.Name() != "rtfFTL" {
		t.Error("name wrong")
	}
}

func TestRejectsTinyGeometry(t *testing.T) {
	g := nand.TestGeometry()
	g.BlocksPerChip = ftl.RTFActiveBlocksPerChip // no room for reserve
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.FPS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftl.NewRTFFTL(dev, ftl.DefaultConfig()); err == nil {
		t.Error("geometry with no reserve accepted")
	}
}

// TestSuccessiveLSBBurst: with 8 active blocks per chip, a fresh rtfFTL must
// serve at least 8 successive writes per chip on fast LSB pages.
func TestSuccessiveLSBBurst(t *testing.T) {
	fx := fixture(t)
	g := fx.F.Device().Geometry()
	burst := ftl.RTFActiveBlocksPerChip * g.Chips()
	now := sim.Time(0)
	for i := 0; i < burst; i++ {
		done, err := fx.F.Write(ftl.LPN(i), now, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st := fx.F.Stats()
	if st.HostWritesLSB != int64(burst) || st.HostWritesMSB != 0 {
		t.Errorf("burst served with %d LSB / %d MSB, want all-LSB", st.HostWritesLSB, st.HostWritesMSB)
	}
}

// TestPairParityBackupRatio: rtfFTL pre-backs up with one parity page per
// ftl.FPSParityPairSize LSB programs, the same FPS bound parityFTL uses
// (footnote 4).
func TestPairParityBackupRatio(t *testing.T) {
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
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("backup/LSB ratio = %.3f, want ~0.5 (1 parity per %d LSB pages)", ratio, ftl.FPSParityPairSize)
	}
}

// TestIdleReturnsToFast: after a mixed fill leaves active blocks waiting on
// MSB pages, an idle window must drain them so the pool is all-LSB-ready.
func TestIdleReturnsToFast(t *testing.T) {
	fx := fixture(t)
	f := fx.F.(*ftl.Kernel)
	src := rng.New(5)
	logical := fx.F.LogicalPages()
	now := sim.Time(0)
	for i := int64(0); i < 2*logical; i++ {
		done, err := fx.F.Write(ftl.LPN(src.Int63n(logical)), now, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	gPre := fx.F.Device().Geometry()
	msbPending := false
	for chip := 0; chip < gPre.Chips(); chip++ {
		if f.Snapshot().Chips[chip].HasMSBNext {
			msbPending = true
			break
		}
	}
	if !msbPending {
		t.Skip("fill left the pool all-LSB already")
	}
	fx.F.Idle(now, now+20*sim.Second)
	// Relocation-backed drain plus capped padding must leave a minimum
	// burst readiness of two LSB-ready slots per chip.
	g := fx.F.Device().Geometry()
	const minReady = 2
	for chip := 0; chip < g.Chips(); chip++ {
		if got := f.Snapshot().Chips[chip].LSBReadySlots; got < minReady {
			t.Errorf("chip %d only %d/%d slots LSB-ready after idle", chip, got, ftl.RTFActiveBlocksPerChip)
		}
	}
	// After returning to fast, a burst of that depth per chip is served
	// entirely on LSB pages.
	st0 := fx.F.Stats()
	burst := minReady * g.Chips()
	for i := 0; i < burst; i++ {
		done, err := fx.F.Write(ftl.LPN(src.Int63n(logical)), now, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st1 := fx.F.Stats()
	if got := st1.HostWritesLSB - st0.HostWritesLSB; got != int64(burst) {
		t.Errorf("post-idle burst used %d LSB writes, want %d", got, burst)
	}
}
