package nflex

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/obs"
	"flexftl/internal/sim"
)

// programAt writes one page in the requested phase, maintaining the nPO
// block life cycle: phase-0 blocks come from the free pool; completing
// phase i writes that phase's parity page and queues the block for phase
// i+1; completing the final phase moves it to the full pool and retires its
// parities.
func (f *FTL) programAt(chip, level int, lpn ftl.LPN, data, spare []byte, now sim.Time, fromGC bool) (sim.Time, error) {
	g := f.dev.Geometry()
	levels := g.BitsPerCell()
	cs := &f.chips[chip]

	// Feasibility fallbacks.
	if level == 0 && cs.phases[0].blk == -1 && f.pools[chip].FreeCount() <= 1 {
		level = f.deepestAvailable(chip)
	}
	if level > 0 && !f.phaseAvailable(chip, level) {
		// Requested phase empty: fall to the deepest available, else fast.
		level = f.deepestAvailable(chip)
	}

	cur := &cs.phases[level]
	if cur.blk == -1 {
		if level == 0 {
			blk, ok := f.pools[chip].PopFree()
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

	addr := pageFor(chip, cur.blk, cur.pos, level)
	done, err := f.dev.Program(addr, data, spare, now)
	if err != nil {
		return now, err
	}
	f.m.Update(lpn, g.PPNOf(addr))
	if fromGC {
		f.st.GCCopies++
		if level == 0 {
			f.st.GCCopiesLSB++
		} else {
			f.st.GCCopiesMSB++
		}
	} else {
		f.byLevel[level]++
		if level == 0 {
			f.st.HostWritesLSB++
		} else {
			f.st.HostWritesMSB++
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
			f.psnap = cs.pbuf[level].SnapshotInto(f.psnap)
			snapshot := f.psnap
			cs.pbuf[level].Reset()
			cs.queues[level+1].Push(full)
			preBackup := done
			done, err = f.writePhaseParity(chip, full, level, snapshot, done)
			if err != nil {
				return done, err
			}
			if done > preBackup {
				f.ctrBlameBackup.Add(int64(done - preBackup))
			}
		} else {
			// Final phase: block fully programmed; retire its parities.
			f.invalidateParities(chip, full)
			f.pools[chip].PushFull(full)
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
		b, ok := f.pools[chip].PopFree()
		if !ok {
			return now, fmt.Errorf("nflex: chip %d has no free block for parity backups", chip)
		}
		bk.cur, bk.pos = b, 0
	}
	addr := pageFor(chip, bk.cur, bk.pos, 0)
	prevCause := f.dev.SetCause(obs.CauseBackup)
	done, err := f.dev.Program(addr, parityPage, spareBlockNo(&f.sp, blk, level), now)
	f.dev.SetCause(prevCause)
	if err != nil {
		return now, err
	}
	f.st.BackupWrites++
	*f.ref(chip, blk, level) = parityRef{backupBlk: bk.cur, page: bk.pos}
	bk.live[bk.cur]++
	bk.pos++
	if bk.pos == f.dev.Geometry().WordLinesPerBlock {
		bk.retired = append(bk.retired, bk.cur)
		bk.cur = -1
	}
	return done, nil
}

// invalidateParities retires every phase parity of a completed block and
// recycles stale backup blocks.
func (f *FTL) invalidateParities(chip, blk int) {
	prevCause := f.dev.SetCause(obs.CauseBackup)
	defer f.dev.SetCause(prevCause)
	cs := &f.chips[chip]
	for level := 0; level < f.dev.Geometry().BitsPerCell()-1; level++ {
		if ref := f.ref(chip, blk, level); ref.backupBlk != -1 {
			cs.backup.live[ref.backupBlk]--
			ref.backupBlk = -1
		}
	}
	kept := cs.backup.retired[:0]
	for _, b := range cs.backup.retired {
		if cs.backup.live[b] == 0 {
			delete(cs.backup.live, b)
			if _, err := f.dev.Erase(nand.BlockAddr{Chip: chip, Block: b}, 0); err != nil {
				panic(fmt.Sprintf("nflex: recycling backup block %d: %v", b, err))
			}
			f.st.Erases++
			f.pools[chip].PushFree(b)
			continue
		}
		kept = append(kept, b)
	}
	cs.backup.retired = kept
}

// gcAlloc relocates one page during GC: background GC consumes the deepest
// phases (raising q), foreground GC rotates.
func (f *FTL) gcAlloc(chip int, lpn ftl.LPN, data []byte, now sim.Time) (sim.Time, error) {
	level := f.deepestAvailable(chip)
	if !f.inBGC {
		cs := &f.chips[chip]
		cs.toggle = (cs.toggle + 1) % f.dev.Geometry().BitsPerCell()
		if cs.toggle == 0 || f.phaseAvailable(chip, cs.toggle) {
			level = cs.toggle
		}
	}
	return f.programAt(chip, level, lpn, data, f.spare(lpn), now, true)
}

// collectVictim relocates a whole victim inline (foreground).
func (f *FTL) collectVictim(chip, victim int, now sim.Time) (sim.Time, error) {
	prevCause := f.dev.SetCause(obs.CauseGC)
	defer f.dev.SetCause(prevCause)
	f.pools[chip].TakeFull(victim)
	a := nand.BlockAddr{Chip: chip, Block: victim}
	idx := 0
	for {
		ppn, nextIdx, ok := f.m.NextValidFrom(a, idx)
		if !ok {
			break
		}
		idx = nextIdx
		lpn, ok := f.m.LPNAt(ppn)
		if !ok {
			continue
		}
		t, err := f.dev.ReadInto(f.dev.Geometry().AddrOfPPN(ppn), &f.buf, now)
		if err != nil {
			return now, fmt.Errorf("nflex: GC read: %w", err)
		}
		now, err = f.gcAlloc(chip, lpn, f.buf.Data, t)
		if err != nil {
			return now, err
		}
	}
	done, err := f.dev.Erase(a, now)
	if err != nil {
		return now, err
	}
	f.st.Erases++
	f.pools[chip].PushFree(victim)
	return done, nil
}

// foregroundGC reclaims inline only when phase-0 capacity is required and
// thin, or at the emergency reserve.
func (f *FTL) foregroundGC(chip int, now sim.Time) (sim.Time, error) {
	needsFast := f.deepestAvailable(chip) == 0
	reserve := f.cfg.MinFreeBlocksPerChip
	for (needsFast && f.pools[chip].FreeCount() < reserve+1) || f.pools[chip].FreeCount() < 2 {
		victim, ok := f.pools[chip].PickVictim()
		if !ok {
			break
		}
		var err error
		now, err = f.collectVictim(chip, victim, now)
		if err != nil {
			return now, err
		}
		f.st.ForegroundGCs++
	}
	return now, nil
}

// Idle runs incremental background GC (deepest-phase copies raise q).
func (f *FTL) Idle(now, until sim.Time) {
	f.inBGC = true
	prevCause := f.dev.SetCause(obs.CauseGC)
	defer func() {
		f.inBGC = false
		f.dev.SetCause(prevCause)
	}()
	g := f.dev.Geometry()
	t := f.dev.Timing()
	perPage := t.Read + 2*t.BusXfer + t.Prog(core.PageType(g.BitsPerCell()-1))
	threshold := func() bool {
		return float64(f.TotalFreeBlocks()) < f.cfg.GCFreeFraction*float64(g.TotalBlocks())*1.5
	}
	for now < until {
		if !f.bg.active {
			if !threshold() {
				return
			}
			best, bestChip := -1, -1
			for c := range f.pools {
				if v, ok := f.pools[c].PickVictim(); ok {
					if bestChip == -1 || f.pools[c].FreeCount() < f.pools[bestChip].FreeCount() {
						best, bestChip = v, c
					}
				}
			}
			if bestChip == -1 {
				return
			}
			f.pools[bestChip].TakeFull(best)
			f.bg = bgState{chip: bestChip, blk: best, active: true}
			f.st.BackgroundGCs++
		}
		victim := nand.BlockAddr{Chip: f.bg.chip, Block: f.bg.blk}
		ppn, nextIdx, ok := f.m.NextValidFrom(victim, f.bg.nextIdx)
		if !ok {
			done, err := f.dev.Erase(victim, now)
			if err != nil {
				f.bg.active = false
				return
			}
			f.st.Erases++
			f.pools[f.bg.chip].PushFree(f.bg.blk)
			f.bg = bgState{}
			now = done
			continue
		}
		if now+perPage > until {
			return
		}
		f.bg.nextIdx = nextIdx
		lpn, ok := f.m.LPNAt(ppn)
		if !ok {
			continue
		}
		t2, err := f.dev.ReadInto(f.dev.Geometry().AddrOfPPN(ppn), &f.buf, now)
		if err != nil {
			f.pools[f.bg.chip].PushFull(f.bg.blk)
			f.bg = bgState{}
			return
		}
		now, err = f.gcAlloc(f.bg.chip, lpn, f.buf.Data, t2)
		if err != nil {
			panic(fmt.Sprintf("nflex: background relocation failed: %v", err))
		}
		// gcAlloc/programAt counted the copy already.
	}
}
