// Powerfail: a guided walk through Figure 7 — the per-block parity backup
// (7a) and the reboot-time recovery of a destroyed paired LSB page (7b) —
// on a single chip, narrated step by step.
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
	g := nand.Geometry{
		Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 32,
		WordLinesPerBlock: 4, PageSizeBytes: 64, SpareBytes: 16,
	}
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		log.Fatal(err)
	}
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a tiny 1-chip device:", g)
	fmt.Println()

	// Figure 7(a): while the LSB pages A..D of the active fast block are
	// written, flexFTL accumulates their XOR in the parity page buffer;
	// writing the last LSB page flushes the parity page to the backup block
	// with the fast block's number in its spare area.
	now := sim.Time(0)
	for lpn := ftl.LPN(0); lpn < ftl.LPN(g.WordLinesPerBlock); lpn++ {
		now, err = f.Write(lpn, now, 0.95)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("write LPN %d -> LSB page of the active fast block (t=%v)\n", lpn, now)
	}
	fmt.Printf("fast block full: parity of its %d LSB pages written to the backup block (backups=%d)\n\n",
		g.WordLinesPerBlock, f.Stats().BackupWrites)

	// The block is now the active slow block; an MSB write begins the
	// destructive phase.
	now, err = f.Write(100, now, 0.01) // low utilization -> MSB page
	if err != nil {
		log.Fatal(err)
	}
	slow := f.Snapshot().Chips[0].Streams[0]
	blk, wl := slow.ActiveSlow(), slow.SlowProgress-1
	fmt.Printf("write LPN 100 -> MSB(%d) of slow block %d: the paired LSB data is in its\n", wl, blk)
	fmt.Println("transient state while this 2000us program runs...")

	// Sudden power-off mid-program.
	if !dev.InjectPowerLoss(nand.BlockAddr{Chip: 0, Block: blk}) {
		log.Fatal("no program in flight?")
	}
	lostLPN := ftl.LPN(wl) // LPN wl landed on LSB(wl) above
	if _, err := f.Read(lostLPN, now); err == nil {
		log.Fatal("expected the paired LSB page to be unreadable")
	}
	fmt.Printf("POWER CUT. LSB(%d) is now ECC-uncorrectable; LPN %d's data is physically gone.\n\n", wl, lostLPN)

	// Figure 7(b): reboot. Recovery re-reads the slow block's LSB pages,
	// skips the unreadable one, XORs the survivors with the saved parity
	// page, and re-homes the reconstructed data.
	rep, err := f.Recover(now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reboot recovery: %d page reads in %v\n", rep.PagesRead, rep.Duration())
	fmt.Printf("  recovered LPNs: %v (rebuilt from parity XOR survivors)\n", rep.Recovered)
	fmt.Printf("  dropped LPNs:   %v (the interrupted, never-acknowledged MSB write)\n", rep.Dropped)
	if _, err := f.Read(lostLPN, rep.End); err != nil {
		log.Fatal("recovered page unreadable: ", err)
	}
	fmt.Printf("LPN %d reads back correctly again.\n", lostLPN)
}
