package nflex

import (
	"errors"
	"fmt"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/parity"
	"flexftl/internal/sim"
)

// RecoveryReport summarizes an n-level reboot recovery pass; it is the same
// report the 2-bit kernel recovery produces.
type RecoveryReport = ftl.RecoveryReport

// Recover runs the generalized reboot procedure: for every chip and every
// phase with a partially programmed active block, re-read the phase's pages
// rebuilding the partial parity accumulation; an interrupted refinement at
// level i has destroyed the word line's pages at levels 0..i-1, each of
// which is reconstructed from its own phase parity page.
func (f *FTL) Recover(now sim.Time) (RecoveryReport, error) {
	rep := RecoveryReport{Start: now}
	end := now
	for chip := range f.chips {
		t, err := f.recoverChip(chip, now, &rep)
		if err != nil {
			return rep, err
		}
		if t > end {
			end = t
		}
	}
	rep.End = end
	return rep, nil
}

func (f *FTL) recoverChip(chip int, now sim.Time, rep *RecoveryReport) (sim.Time, error) {
	g := f.Base.Dev.Geometry()
	cs := &f.chips[chip]

	for level := g.BitsPerCell() - 1; level >= 1; level-- {
		cur := cs.phases[level]
		if cur.blk == -1 || cur.pos == 0 {
			continue
		}
		blk := cur.blk
		wl := cur.pos - 1 // the word line whose refinement may have been cut

		// Drop the interrupted write if its page was destroyed.
		inFlight := pageFor(chip, blk, wl, level)
		if lpn, ok := f.Base.Map.LPNAt(f.Base.Dev.Layout().PPNOf(inFlight)); ok {
			if t, err := f.Base.Dev.ReadInto(inFlight, &f.Base.Buf, now); err != nil {
				now = t
				rep.PagesRead++
				if errors.Is(err, nand.ErrUncorrectable) {
					f.Base.Map.Invalidate(lpn)
					rep.Dropped = append(rep.Dropped, lpn)
				}
			} else {
				now = advance(now, t)
				rep.PagesRead++
				continue // refinement completed safely; nothing below is lost
			}
		}

		// Reconstruct each destroyed earlier-level page of this block from
		// its phase parity.
		for lvl := 0; lvl < level; lvl++ {
			var err error
			now, err = f.reconstructPhasePage(chip, blk, lvl, now, rep)
			if err != nil {
				return now, err
			}
		}
	}

	// Rebuild partial parity accumulations for every active phase.
	for level := 0; level < g.BitsPerCell()-1; level++ {
		cur := cs.phases[level]
		if cur.blk == -1 || cur.pos == 0 {
			continue
		}
		cs.pbuf[level].Reset()
		for wl := 0; wl < cur.pos; wl++ {
			t, err := f.Base.Dev.ReadInto(pageFor(chip, cur.blk, wl, level), &f.Base.Buf, now)
			rep.PagesRead++
			now = t
			if err != nil {
				if errors.Is(err, nand.ErrUncorrectable) {
					continue // will have been handled above
				}
				return now, fmt.Errorf("nflex: parity rebuild read: %w", err)
			}
			if err := cs.pbuf[level].Add(f.Base.Buf.Data); err != nil {
				return now, err
			}
		}
	}
	return now, nil
}

// reconstructPhasePage scans the block's level-lvl pages, reconstructs the
// (at most one) unreadable page from the phase parity, and re-homes its data
// if still live.
func (f *FTL) reconstructPhasePage(chip, blk, lvl int, now sim.Time, rep *RecoveryReport) (sim.Time, error) {
	g := f.Base.Dev.Geometry()
	var survivors [][]byte
	lostWL := -1
	for wl := 0; wl < g.WordLinesPerBlock; wl++ {
		t, err := f.Base.Dev.ReadInto(pageFor(chip, blk, wl, lvl), &f.Base.Buf, now)
		rep.PagesRead++
		now = t
		switch {
		case err == nil:
			// Retained past the next read, so copied out of the shared buffer.
			survivors = append(survivors, append([]byte(nil), f.Base.Buf.Data...))
		case errors.Is(err, nand.ErrUncorrectable):
			if lostWL != -1 {
				return now, fmt.Errorf("nflex: two pages lost in phase %d of chip%d/blk%d", lvl, chip, blk)
			}
			lostWL = wl
		default:
			return now, fmt.Errorf("nflex: recovery read: %w", err)
		}
	}
	if lostWL == -1 {
		return now, nil
	}
	ref := f.ref(chip, blk, lvl)
	if ref.backupBlk == -1 {
		return now, fmt.Errorf("nflex: no phase-%d parity recorded for chip%d/blk%d", lvl, chip, blk)
	}
	t, err := f.Base.Dev.ReadInto(pageFor(chip, ref.backupBlk, ref.page, 0), &f.Base.Buf, now)
	rep.PagesRead++
	now = t
	if err != nil {
		return now, fmt.Errorf("nflex: reading phase parity: %w", err)
	}
	if b, l, ok := blockNoFromSpare(f.Base.Buf.Spare); !ok || b != blk || l != lvl {
		return now, fmt.Errorf("nflex: parity inverse-map mismatch: got blk %d lvl %d", b, l)
	}
	parityPage := f.Base.Buf.Data
	if len(parityPage) > ftl.TokenSize {
		parityPage = parityPage[:ftl.TokenSize]
	}
	recovered, err := parity.Recover(parityPage, survivors)
	if err != nil {
		return now, err
	}
	lostPPN := f.Base.Dev.Layout().PPNOf(pageFor(chip, blk, lostWL, lvl))
	lpn, live := f.Base.Map.LPNAt(lostPPN)
	if !live {
		return now, nil
	}
	if tok, _ := ftl.TokenLPN(recovered); tok != lpn {
		return now, fmt.Errorf("nflex: recovered payload LPN %d != mapping %d", tok, lpn)
	}
	now, err = f.programAt(chip, 0, lpn, recovered, ftl.SpareForLPN(lpn), now, false)
	if err != nil {
		return now, fmt.Errorf("nflex: re-homing recovered LPN %d: %w", lpn, err)
	}
	rep.Recovered = append(rep.Recovered, lpn)
	return now, nil
}

func advance(now, t sim.Time) sim.Time {
	if t > now {
		return t
	}
	return now
}
