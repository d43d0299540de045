// TLC: the paper's Section 1 claim — "our proposed technique can be
// applicable for other NAND devices such as TLC NAND devices with a similar
// program scheme" — run as a working system. A 3-bit device enforces the
// generalized relaxed constraints; the n-phase flexFTL serves a burst on
// fast level-0 pages, then a power cut during the finest refinement destroys
// TWO earlier pages of the word line, and both are rebuilt from their
// per-phase parity pages.
package main

import (
	"fmt"
	"log"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

func main() {
	g := nand.TLCGeometry()
	g.BlocksPerChip = 32
	g.WordLinesPerBlock = 8
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.TLCTiming(), Rules: core.RPS})
	if err != nil {
		log.Fatal(err)
	}
	f, err := nflex.New(dev, ftl.DefaultConfig(), nflex.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	tm := dev.Timing()
	fmt.Println("device :", g)
	fmt.Printf("timing : level programs %v / %v / %v (the MLC asymmetry, one level deeper)\n\n",
		tm.ProgLSB, tm.ProgMSB, tm.Prog(2))

	// 1. A saturated burst runs at level-0 speed.
	const burst = 64
	var last sim.Time
	for i := 0; i < burst; i++ {
		done, err := f.Write(ftl.LPN(i), 0, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		if done > last {
			last = done
		}
	}
	fmt.Printf("burst  : %d pages drained in %v — all on level-0 pages (%v each): %v\n",
		burst, last, tm.ProgLSB, f.HostWritesByLevel())

	// 2. Push one chip through its refinement phases and cut power during a
	// level-2 (finest) program.
	now := last
	lpn := ftl.LPN(burst)
	for !level2InFlight(f) {
		now, err = f.Write(lpn, now, 0.01) // sleepy buffer -> deep phases
		if err != nil {
			log.Fatal(err)
		}
		lpn++
	}
	cut, _ := dev.OpenMSBWindow(0)
	if !dev.InjectPowerLoss(cut.BlockAddr) {
		log.Fatal("no refinement in flight on chip 0")
	}
	fmt.Printf("\npower cut during the %v refinement: %d pages of the word line destroyed\n", cut.Page, int(cut.Page.Type)+1)
	fmt.Println("(the finest program is destructive to BOTH earlier bits of the cell)")

	// 3. Recovery rebuilds every destroyed page from its phase parity.
	rep, err := f.Recover(now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d page reads in %v; recovered LPNs %v, dropped in-flight %v\n",
		rep.PagesRead, rep.Duration(), rep.Recovered, rep.Dropped)
	for _, l := range rep.Recovered {
		if _, err := f.Read(l, rep.End); err != nil {
			log.Fatalf("LPN %d not actually recovered: %v", l, err)
		}
	}
	fmt.Printf("verified: all %d recovered pages read back correctly\n", len(rep.Recovered))
	fmt.Printf("backup cost so far: %d parity pages for %d host writes (per-block-per-phase)\n",
		f.Stats().BackupWrites, f.Stats().HostWrites)
}

func level2InFlight(f *nflex.FTL) bool { return f.ActivePhaseProgress(0, 2) > 0 }
