package ssd_test

import (
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/nand"
	"flexftl/internal/ssd"
)

// BenchmarkPrefill times the write path a sequential prefill drives — the
// kernel's page program down to the device's page record — on a fresh
// device per iteration, and reports it per host page. The build is not
// timed. "eval" is the evaluation geometry, "paper" the paper's 16 GB MLC
// device (3.1 M host pages per prefill).
//
//	go test -run '^$' -bench BenchmarkPrefill -benchtime 5x ./internal/ssd
func BenchmarkPrefill(b *testing.B) {
	geos := []struct {
		name string
		g    nand.Geometry
	}{
		{"eval", experiments.EvalGeometry()},
		{"paper", nand.DefaultGeometry()},
	}
	for _, geo := range geos {
		for _, scheme := range []string{"flexFTL", "pageFTL"} {
			b.Run(scheme+"/"+geo.name, func(b *testing.B) {
				var pages int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f, err := experiments.BuildFTL(scheme, geo.g)
					if err != nil {
						b.Fatal(err)
					}
					sys, err := ssd.New(f, ssd.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := sys.Prefill(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					pages += int64(float64(f.LogicalPages()) * ssd.DefaultConfig().PrefillFraction)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
			})
		}
	}
}
