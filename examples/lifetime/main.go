// Lifetime: the Figure 8(b) story in miniature — the same write-intensive
// workload against all four MLC FTLs, comparing block erasures and write
// amplification. The backup strategy is the differentiator: pageFTL writes
// no backups (and would lose data on power-off), parityFTL pays one parity
// page per two LSB pages, rtfFTL pays that plus padding, and flexFTL pays a
// single parity page per block.
package main

import (
	"fmt"
	"log"

	"flexftl/internal/experiments"
	"flexftl/internal/workload"
)

func main() {
	setup := experiments.Setup{Geometry: experiments.EvalGeometry(), Requests: 60000, Seed: 7}
	prof := workload.NTRX() // write-dominant, very intense
	var grid experiments.Grid
	for _, scheme := range experiments.Schemes() {
		grid = append(grid, setup.Cell(scheme, prof))
	}
	runs, err := experiments.RunGrid(grid, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (%d requests) on %s\n\n", prof.Name, setup.Requests, setup.Geometry)
	fmt.Printf("  %-10s %8s %8s %10s %10s %8s\n", "ftl", "erases", "backups", "backup/W", "WA", "IOPS")
	for i, res := range runs {
		st := res.Stats
		perHostWrite := float64(st.BackupWrites) / float64(st.HostWrites)
		fmt.Printf("  %-10s %8d %8d %10.4f %10.2f %8.0f   wear max/mean %.1fx\n",
			grid[i].Scheme, st.Erases, st.BackupWrites, perHostWrite,
			st.WriteAmplification(), res.Metrics.IOPS, res.WearSpread)
	}
	fmt.Println("\nflexFTL's per-block parity makes its backup overhead ~1/W per LSB page")
	fmt.Println("(W = LSB pages per block) versus 1/2 for the FPS pre-backup schemes, which")
	fmt.Println("is where its erase-count advantage — device lifetime — comes from.")
}
