package crash

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// maxViolations caps the per-trial violation list; a systemically broken
// scheme would otherwise report every logical page.
const maxViolations = 8

// shadow is the trial's model of what the host is owed. For every
// acknowledged write it records the global sequence number the token
// carried; any later on-flash copy of that LPN (a retokenized GC
// relocation) carries a sequence at least that high, so "readable, token
// LPN matches, sequence >= floor" is exactly "the acknowledged data
// survived".
type shadow struct {
	seq     []int64 // per-LPN floor; -1 = never written
	trimmed []bool  // currently trimmed (written, then discarded)
}

func newShadow(logical int64) *shadow {
	s := &shadow{seq: make([]int64, logical), trimmed: make([]bool, logical)}
	for i := range s.seq {
		s.seq[i] = -1
	}
	return s
}

func (s *shadow) noteWrite(lpn ftl.LPN, seq int64) {
	s.seq[lpn] = seq
	s.trimmed[lpn] = false
}

func (s *shadow) noteTrim(lpn ftl.LPN) {
	if s.seq[lpn] >= 0 {
		s.trimmed[lpn] = true
	}
}

// written reports whether the LPN currently holds acknowledged data.
func (s *shadow) written(lpn ftl.LPN) bool {
	return s.seq[lpn] >= 0 && !s.trimmed[lpn]
}

func (s *shadow) trimmedCount() int {
	n := 0
	for _, t := range s.trimmed {
		if t {
			n++
		}
	}
	return n
}

// vulnState snapshots, at the instant of the cut, which logical pages sit in
// the target chip's destructive MSB window.
type vulnState struct {
	open     bool
	msbAddr  nand.PageAddr
	pairAddr nand.PageAddr
	msbLPN   ftl.LPN
	msbLive  bool
	pairLPN  ftl.LPN
	pairLive bool
}

func snapshotWindow(k *ftl.Kernel, chip int) vulnState {
	a, open := k.Dev.OpenMSBWindow(chip)
	if !open {
		return vulnState{}
	}
	lay := k.Dev.Layout()
	v := vulnState{open: true, msbAddr: a}
	v.pairAddr = a
	v.pairAddr.Page.Type = core.LSB
	v.msbLPN, v.msbLive = k.Map.LPNAt(lay.PPNOf(a))
	v.pairLPN, v.pairLive = k.Map.LPNAt(lay.PPNOf(v.pairAddr))
	return v
}

// runTrial plays one seeded crash story end to end. Everything random about
// the trial — prefill utilizations, the operation mix, the crash point, the
// metadata-survival mode — derives from one Split of the campaign seed, so
// the trial is a pure function of (cfg, trial index).
func runTrial(cfg Config, spec ftl.Spec, trial int) (Outcome, error) {
	r := rng.New(cfg.Seed).Split(uint64(trial) + 1)
	o := Outcome{Trial: trial, Scheme: cfg.Scheme}

	// The campaign prefills to full logical capacity; at the paper's 12.5%
	// over-provisioning that leaves no slack for backup blocks plus GC
	// startup on fully-valid blocks, so campaigns run at 25% OP. GC still
	// engages: the hot working set invalidates pages fast enough that the
	// op window crosses the free-block thresholds.
	fcfg := ftl.DefaultConfig()
	fcfg.OPFraction = 0.25
	h, err := ftl.Build(cfg.Scheme, ftl.BuildEnv{
		Geometry: cfg.Geometry,
		Config:   fcfg,
		Flex:     ftl.DefaultFlexParams(),
	})
	if err != nil {
		return o, fmt.Errorf("crash: trial %d: %w", trial, err)
	}
	k, ok := h.(*ftl.Kernel)
	if !ok {
		return o, fmt.Errorf("crash: scheme %q is not an ftl.Kernel, whose recovery the campaign drives", cfg.Scheme)
	}

	// Draw the trial's fate up front, in a fixed order, so the workload
	// length never shifts which stream positions later draws read.
	o.CrashOp = 1 + r.Intn(cfg.Ops)
	o.Chip = r.Intn(k.Chips())
	o.MetaMode = r.Intn(3)

	sh := newShadow(k.LogicalPages())
	now := sim.Time(0)

	// Prefill every logical page once: steady state for an SSD is "full",
	// and a full device is what makes the post-prefill window exercise GC,
	// background relocation and the slow phase.
	logical := int(k.LogicalPages())
	for p := 0; p < logical; p++ {
		lpn := ftl.LPN(p)
		done, err := k.Write(lpn, now, r.Float64())
		if err != nil {
			return o, fmt.Errorf("crash: trial %d prefill lpn %d: %w", trial, p, err)
		}
		sh.noteWrite(lpn, k.Seq())
		now = done
	}

	for op := 0; op < o.CrashOp; op++ {
		now, err = step(k, sh, r, now)
		if err != nil {
			return o, fmt.Errorf("crash: trial %d op %d: %w", trial, op, err)
		}
	}

	// The cut. Snapshot the destructive window first — after injection the
	// device reports it closed.
	v := snapshotWindow(k, o.Chip)
	if spec.Backup == "pairParity" {
		// Pair-parity schemes persist the parity before the paired MSB
		// program begins, so every program is acknowledged at issue and no
		// destructive window may ever be left open.
		for c := 0; c < k.Chips(); c++ {
			if _, open := k.Dev.OpenMSBWindow(c); open {
				o.addViolation("ack discipline: chip %d left a destructive MSB window open under pair-parity backup", c)
			}
		}
	}
	if v.open {
		if m := k.Snapshot().Chips[o.Chip].LastMSB; m != nil && m.LPN == v.msbLPN {
			o.FromGC = m.FromGC
		}
		o.Injected = k.Dev.InjectPowerLoss(nand.BlockAddr{Chip: o.Chip, Block: v.msbAddr.Block})
	}

	rebuilt := false
	if spec.Backup == "blockParity" {
		rebuilt, now = runRecovery(cfg, k, sh, v, &o, now)
	}

	verify(cfg, spec, k, sh, v, rebuilt, &o, now)
	account(k, &o)
	return o, nil
}

// step plays one workload operation: mostly overwrites concentrated on a hot
// eighth of the address space (GC pressure), with reads, trims and idle
// windows mixed in so crashes land in fast phases, slow phases and
// background-GC copies alike.
func step(k *ftl.Kernel, sh *shadow, r *rng.Source, now sim.Time) (sim.Time, error) {
	logical := int(k.LogicalPages())
	pick := func() ftl.LPN {
		if r.Bool(0.8) {
			return ftl.LPN(r.Intn(logical / 8))
		}
		return ftl.LPN(r.Intn(logical))
	}
	x := r.Float64()
	switch {
	case x < 0.65: // overwrite
		lpn := pick()
		done, err := k.Write(lpn, now, r.Float64())
		if err != nil {
			return now, err
		}
		sh.noteWrite(lpn, k.Seq())
		return done, nil
	case x < 0.80: // read
		lpn := pick()
		if !sh.written(lpn) {
			return now, nil
		}
		done, err := k.Read(lpn, now)
		if err != nil {
			return now, err
		}
		return done, nil
	case x < 0.85: // trim
		lpn := pick()
		if !sh.written(lpn) {
			return now, nil
		}
		done, err := k.Trim(lpn, now)
		if err != nil {
			return now, err
		}
		sh.noteTrim(lpn)
		return done, nil
	default: // idle window sized to land crashes mid-background-GC
		span := sim.Time(1+r.Intn(8)) * ftl.GCPageCopyCost(k.Dev.Timing(), k.Dev.Geometry().BitsPerCell())
		k.Idle(now, now+span)
		return now + span, nil
	}
}

// runRecovery drives the block-parity scheme's reboot procedures under the
// trial's metadata-survival mode and sabotage setting. Returns whether the
// mapping table was rebuilt from flash (which legitimately resurrects
// trimmed LPNs — there is no persistent trim log).
func runRecovery(cfg Config, k *ftl.Kernel, sh *shadow, v vulnState, o *Outcome, now sim.Time) (rebuilt bool, end sim.Time) {
	if cfg.Sabotage == SabotageSkipRecovery {
		return false, now
	}
	if cfg.Sabotage == SabotageCorruptParity && o.Injected && v.pairLive {
		if backupBlk, page, ok := k.ParityRef(o.Chip, v.msbAddr.Block); ok {
			addr := nand.PageAddr{
				BlockAddr: nand.BlockAddr{Chip: o.Chip, Block: backupBlk},
				Page:      core.Page{WL: page, Type: core.LSB},
			}
			if err := k.Dev.CorruptPage(addr); err != nil {
				o.addViolation("sabotage: corrupting parity page %v: %v", addr, err)
			}
		}
	}

	start := now
	switch o.MetaMode {
	case 1: // refs lost; rebuild them from backup-block spare areas first
		k.ForgetParityRefs()
		scan, err := k.RebuildParityRefs(now)
		if err != nil {
			o.addViolation("RebuildParityRefs failed: %v", err)
			return false, now
		}
		o.PagesRead += scan.PagesRead
		now = scan.End
	case 2: // refs lost; Recover must find parity by scanning spares
		k.ForgetParityRefs()
	}

	rec, err := k.Recover(now)
	o.PagesRead += rec.PagesRead
	o.Recovered = len(rec.Recovered)
	o.RolledBack = len(rec.RolledBack)
	o.Dropped = len(rec.Dropped)
	if err != nil {
		o.addViolation("Recover failed: %v", err)
		o.RecoveryTime = rec.End - start
		return false, rec.End
	}
	now = rec.End

	rb, err := k.RebuildMapping(now)
	if err != nil {
		o.addViolation("RebuildMapping failed: %v", err)
		o.RecoveryTime = now - start
		return false, now
	}
	now = rb.End
	o.RecoveryTime = now - start

	// The rebuilt table may disagree with the surviving RAM table only for
	// trimmed LPNs (flash still holds their tokens — there is no persistent
	// trim log) and dropped ones (an older generation may resurface).
	// Anything beyond that is a scan bug.
	if allow := int64(sh.trimmedCount() + o.Dropped); rb.Mismatches > allow {
		o.addViolation("rebuilt mapping: %d mismatches vs RAM table, only %d explainable (trims + drops)",
			rb.Mismatches, allow)
	}
	return true, now
}

// verify sweeps the whole logical space against the shadow model.
func verify(cfg Config, spec ftl.Spec, k *ftl.Kernel, sh *shadow, v vulnState, rebuilt bool, o *Outcome, now sim.Time) {
	detectOnly := spec.Backup == "none"
	recovered := spec.Backup == "blockParity" && cfg.Sabotage == SabotageNone

	for p := int64(0); p < k.LogicalPages(); p++ {
		lpn := ftl.LPN(p)
		if !sh.written(lpn) {
			// Never written, or trimmed. A flash-scan rebuild legitimately
			// resurrects trimmed LPNs (no persistent trim log); otherwise
			// they must stay unmapped.
			if !rebuilt {
				if _, mapped := k.Map.Lookup(lpn); mapped && sh.trimmed[lpn] {
					o.addViolation("lpn %d: trimmed but still mapped", lpn)
				}
			}
			continue
		}
		ppn, mapped := k.Map.Lookup(lpn)
		vulnMSB := o.Injected && v.msbLive && lpn == v.msbLPN
		vulnPair := o.Injected && v.pairLive && lpn == v.pairLPN && lpn != v.msbLPN

		if detectOnly && (vulnMSB || vulnPair) {
			// No-backup schemes lost this pair for real. The invariant is
			// detection: the mapping may only point at a page whose read
			// fails; silently returning old bits would be a masked loss.
			if !mapped {
				continue
			}
			if _, err := k.Dev.ReadPPN(ppn, &k.Buf, now); err == nil {
				o.addViolation("lpn %d: destroyed page reads back clean (loss masked)", lpn)
			}
			continue
		}
		if recovered && vulnMSB && !o.FromGC {
			// The interrupted MSB was an in-flight host write, never
			// acknowledged: rolling back to the superseded copy is best
			// effort, dropping is legal. What is not legal is a mapping
			// that points at garbage.
			if !mapped {
				continue
			}
			if msg := readCheck(k, lpn, ppn, 0, now); msg != "" {
				o.addViolation("lpn %d (interrupted host write): %s", lpn, msg)
			}
			continue
		}
		// Everything else is strict: acknowledged data must be mapped,
		// readable, carry this LPN's token and a sequence at or above the
		// acknowledged floor. That includes the vulnerable pair LSB (parity
		// must reconstruct it), an interrupted GC relocation (rollback must
		// keep it readable), and, under sabotage, the pair whose recovery
		// was deliberately broken: the sweep flagging it is exactly the
		// campaign catching the injected fault.
		if !mapped {
			o.addViolation("lpn %d: acknowledged write unmapped", lpn)
			continue
		}
		if msg := readCheck(k, lpn, ppn, uint64(sh.seq[lpn]), now); msg != "" {
			o.addViolation("lpn %d: %s", lpn, msg)
		}
	}
}

// readCheck reads the mapped page and checks token identity and the
// sequence floor (floor 0 skips the floor check).
func readCheck(k *ftl.Kernel, lpn ftl.LPN, ppn nand.PPN, floor uint64, now sim.Time) string {
	if _, err := k.Dev.ReadPPN(ppn, &k.Buf, now); err != nil {
		return fmt.Sprintf("read %v: %v", k.Dev.Layout().Addr(ppn), err)
	}
	data := k.Buf.Data
	tok, ok := ftl.TokenLPN(data)
	if !ok || tok != lpn {
		return fmt.Sprintf("token LPN %v, want %v", tok, lpn)
	}
	if floor > 0 {
		if seq := ftl.TokenSeq(data); seq < floor {
			return fmt.Sprintf("stale data: sequence %d below acknowledged floor %d", seq, floor)
		}
	}
	return ""
}

// account checks that every block of every chip has exactly one holder —
// a leaked or doubly held block is a recovery-path bug.
func account(k *ftl.Kernel, o *Outcome) {
	if err := k.Snapshot().CheckBlocks(k.Pools, k.Dev); err != nil {
		o.addViolation("%v", err)
	}
}

func (o *Outcome) addViolation(format string, args ...any) {
	if len(o.Violations) == maxViolations {
		o.Violations = append(o.Violations, "... further violations suppressed")
		return
	}
	if len(o.Violations) > maxViolations {
		return
	}
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}
