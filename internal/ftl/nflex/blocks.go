package nflex

import (
	"fmt"

	"flexftl/internal/ftl"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// programAt writes one page in the requested phase, maintaining the nPO
// block life cycle: phase-0 blocks come from the free pool; completing
// phase i writes that phase's parity page and queues the block for phase
// i+1; completing the final phase moves it to the full pool and retires its
// parities.
func (f *FTL) programAt(chip, level int, lpn ftl.LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	g := f.Base.Dev.Geometry()
	levels := g.BitsPerCell()
	cs := &f.chips[chip]

	// Feasibility fallbacks.
	if level == 0 && cs.phases[0].blk == -1 && f.Base.Pools[chip].FreeCount() <= 1 {
		level = f.deepestAvailable(chip)
	}
	if level > 0 && !f.phaseAvailable(chip, level) {
		// Requested phase empty: fall to the deepest available, else fast.
		level = f.deepestAvailable(chip)
	}

	cur := &cs.phases[level]
	if cur.blk == -1 {
		if level == 0 {
			blk, ok := f.Base.Pools[chip].PopFree()
			if !ok {
				return now, fmt.Errorf("nflex: chip %d out of free blocks", chip)
			}
			cur.blk, cur.pos = blk, 0
			cs.pbuf[0].Reset()
		} else {
			if cs.queues[level].Len() == 0 {
				return now, fmt.Errorf("nflex: chip %d has no block queued for phase %d", chip, level)
			}
			cur.blk, cur.pos = cs.queues[level].PopFront(), 0
			cs.pbuf[level].Reset()
		}
	}

	ppn := f.Base.Dev.Layout().PPNOf(pageFor(chip, cur.blk, cur.pos, level))
	done, err := f.Base.Dev.ProgramPPN(ppn, data, spare, now)
	if err != nil {
		return now, err
	}
	f.Base.Map.Update(lpn, ppn)
	if fromGC {
		// The collector counts GCCopies itself; only the level split is ours.
		if level == 0 {
			f.Base.St.GCCopiesLSB++
		} else {
			f.Base.St.GCCopiesMSB++
		}
	} else {
		f.byLevel[level]++
		if level == 0 {
			f.Base.St.HostWritesLSB++
		} else {
			f.Base.St.HostWritesMSB++
			// Reprogram penalty: a host write landed on a refinement page
			// instead of a fast level-0 page.
			f.ctrBlameReprogram.Add(f.reprogPenalty[level])
		}
	}
	if level == 0 {
		if !fromGC || f.inBGC {
			f.q--
		}
	} else if !fromGC || f.inBGC {
		if f.q < f.q0 {
			f.q++
		}
	}
	if level < levels-1 {
		if err := cs.pbuf[level].Add(data); err != nil {
			return done, err
		}
	}
	// Deliberately no AckProgram: refinements stay power-vulnerable and the
	// phase parities plus Recover() are the defense — the point of the
	// design, exactly as in the 2-bit flexFTL.

	cur.pos++
	if cur.pos == g.WordLinesPerBlock {
		full := cur.blk
		cur.blk = -1
		if level < levels-1 {
			// Phase complete: persist its parity, queue for the next phase.
			cs.queues[level+1].Push(full)
			preBackup := done
			done, err = f.writePhaseParity(chip, full, level, cs.pbuf[level].Bytes(), done)
			cs.pbuf[level].Reset()
			if err != nil {
				return done, err
			}
			if done > preBackup {
				f.ctrBlameBackup.Add(int64(done - preBackup))
			}
		} else {
			// Final phase: block fully programmed; retire its parities.
			if err := f.invalidateParities(chip, full); err != nil {
				return done, err
			}
			f.Base.Pools[chip].PushFull(full)
		}
	}
	return done, nil
}

// writePhaseParity stores one phase's parity page on a level-0 page of the
// chip's backup block, with (block, level) in the spare area.
func (f *FTL) writePhaseParity(chip, blk, level int, parityPage []byte, now sim.Time) (sim.Time, error) {
	cs := &f.chips[chip]
	bk := &cs.backup
	if bk.cur == -1 {
		b, ok := f.Base.Pools[chip].PopFree()
		if !ok {
			return now, fmt.Errorf("nflex: chip %d has no free block for parity backups", chip)
		}
		bk.cur, bk.pos = b, 0
	}
	addr := pageFor(chip, bk.cur, bk.pos, 0)
	prevCause := f.Base.Dev.SetCause(obs.CauseBackup)
	done, err := f.Base.Dev.Program(addr, parityPage, spareBlockNo(&f.psp, blk, level), now)
	f.Base.Dev.SetCause(prevCause)
	if err != nil {
		return now, err
	}
	f.Base.St.BackupWrites++
	*f.ref(chip, blk, level) = parityRef{backupBlk: bk.cur, page: bk.pos}
	bk.live[bk.cur]++
	bk.pos++
	if bk.pos == f.Base.Dev.Geometry().WordLinesPerBlock {
		bk.retired = append(bk.retired, bk.cur)
		bk.cur = -1
	}
	return done, nil
}

// invalidateParities retires every phase parity of a completed block and
// recycles stale backup blocks.
func (f *FTL) invalidateParities(chip, blk int) error {
	prevCause := f.Base.Dev.SetCause(obs.CauseBackup)
	defer f.Base.Dev.SetCause(prevCause)
	cs := &f.chips[chip]
	for level := 0; level < f.Base.Dev.Geometry().BitsPerCell()-1; level++ {
		if ref := f.ref(chip, blk, level); ref.backupBlk != -1 {
			cs.backup.live[ref.backupBlk]--
			ref.backupBlk = -1
		}
	}
	kept := cs.backup.retired[:0]
	for i, b := range cs.backup.retired {
		if cs.backup.live[b] != 0 {
			kept = append(kept, b)
			continue
		}
		if _, err := f.Base.EraseAndFree(chip, b, 0); err != nil {
			cs.backup.retired = append(kept, cs.backup.retired[i:]...)
			return fmt.Errorf("nflex: recycling backup block %d: %w", b, err)
		}
	}
	cs.backup.retired = kept
	return nil
}

// gcAlloc is the ftl.AllocFunc the shared collector relocates through:
// background GC consumes the deepest phases (raising q), foreground GC
// rotates.
func (f *FTL) gcAlloc(chip int, lpn ftl.LPN, data, spare []byte, now sim.Time) (sim.Time, error) {
	level := f.deepestAvailable(chip)
	if !f.inBGC {
		cs := &f.chips[chip]
		cs.toggle = (cs.toggle + 1) % f.Base.Dev.Geometry().BitsPerCell()
		if cs.toggle == 0 || f.phaseAvailable(chip, cs.toggle) {
			level = cs.toggle
		}
	}
	return f.programAt(chip, level, lpn, data, spare, now, true)
}

// foregroundGC reclaims inline only when phase-0 capacity is required and
// thin, or at the emergency reserve.
func (f *FTL) foregroundGC(chip int, now sim.Time) (sim.Time, error) {
	needsFast := f.deepestAvailable(chip) == 0
	reserve := f.Base.Cfg.MinFreeBlocksPerChip
	for (needsFast && f.Base.Pools[chip].FreeCount() < reserve+1) || f.Base.Pools[chip].FreeCount() < 2 {
		victim, ok := f.Base.Pools[chip].PickVictim()
		if !ok {
			break
		}
		var err error
		now, err = f.Base.CollectVictim(chip, victim, now, f.gcAlloc)
		if err != nil {
			return now, err
		}
		f.Base.St.ForegroundGCs++
	}
	return now, nil
}

// Idle runs incremental background GC (deepest-phase copies raise q) while
// free space is under 1.5x the trigger — re-tested at every victim, with no
// hysteresis latch.
func (f *FTL) Idle(now, until sim.Time) {
	f.inBGC = true
	defer func() { f.inBGC = false }()
	f.Base.RunBackgroundGC(now, until, func() bool {
		return float64(f.Base.TotalFreeBlocks()) < f.Base.Cfg.GCFreeFraction*float64(f.Base.Dev.Geometry().TotalBlocks())*1.5
	}, f.gcAlloc)
}
