// Quickstart: build an RPS NAND device, put flexFTL on top, write and read
// some pages, and look at the counters. This is the smallest end-to-end use
// of the library's public surface.
package main

import (
	"fmt"
	"log"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

func main() {
	// 1. A NAND device. TestGeometry is a small 2-channel part; the rules
	// decide which page program orders the device accepts — core.RPS is the
	// paper's relaxed sequence, core.FPS the stock vendor sequence.
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(),
		Timing:   nand.DefaultTiming(), // LSB 500us, MSB 2000us, read 40us
		Rules:    core.RPS,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("device :", dev.Geometry(), "-", dev.Rules().Name(), "rules")
	fmt.Printf("asym   : MSB program is %.0fx the LSB program\n", dev.Timing().Asymmetry())

	// 2. flexFTL on top: page-level mapping, 2PO block management, adaptive
	// LSB/MSB allocation, per-block parity backup.
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ftl    :", f.Name(), "-", f.LogicalPages(), "logical pages, initial quota", f.Snapshot().InitialQuota)

	// 3. Write a few pages. The third argument is the write-buffer
	// utilization u the policy manager reads: high u -> fast LSB pages,
	// low u -> slow MSB pages.
	now := sim.Time(0)
	for lpn := ftl.LPN(0); lpn < 64; lpn++ {
		now, err = f.Write(lpn, now, 0.9) // burst: prefer LSB
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("wrote  : 64 pages under high utilization in", now)

	// 4. Read them back.
	for lpn := ftl.LPN(0); lpn < 64; lpn++ {
		now, err = f.Read(lpn, now)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("read   : 64 pages back, done at", now)

	// 5. Counters.
	st := f.Stats()
	fmt.Printf("stats  : %d host writes (%d LSB / %d MSB), %d reads, %d parity backups, quota now %d\n",
		st.HostWrites, st.HostWritesLSB, st.HostWritesMSB, st.HostReads, st.BackupWrites, f.Quota())
}
