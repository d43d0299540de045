// Package crash is the randomized sudden-power-off campaign: it drives any
// registry scheme through a seeded workload, cuts power at a sampled
// operation boundary on a sampled chip (the destructive MSB window the
// device models), runs the scheme's recovery procedures, and checks the
// power-cut invariants the paper's Section 3.3 design promises:
//
//   - every acknowledged write reads back with its last-written payload
//     (token LPN match, sequence number at or above the recorded floor);
//   - a parity-covered LSB page destroyed by the cut is reconstructed;
//   - an interrupted GC relocation rolls back to the superseded copy — that
//     data was acknowledged long ago and must survive;
//   - a rebuilt mapping table disagrees with the surviving RAM table only
//     where trims or never-acknowledged drops allow it;
//   - per-chip block accounting still balances (no leaked blocks);
//   - schemes with no backup must *detect* the loss (reads of the destroyed
//     pair fail) rather than silently return stale data.
//
// Trials are deterministic: trial i derives its RNG from Split(seed, i+1),
// so a campaign's outcome is byte-identical at any worker count and any
// failure collapses to a one-line reproducer.
package crash

import (
	"fmt"
	"slices"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/par"
	"flexftl/internal/sim"
)

// Sabotage selects a deliberately injected fault, used to prove the
// campaign's invariants actually bite (a checker that cannot fail is not a
// checker).
type Sabotage int

const (
	// SabotageNone runs the real recovery path.
	SabotageNone Sabotage = iota
	// SabotageSkipRecovery skips Recover/RebuildMapping entirely for
	// parity-backed schemes; trials whose cut destroyed live data must then
	// fail verification.
	SabotageSkipRecovery
	// SabotageCorruptParity corrupts the parity page covering the destroyed
	// pair before recovery runs; recovery must fail loudly, never hand back
	// wrong data.
	SabotageCorruptParity
)

func (s Sabotage) String() string {
	switch s {
	case SabotageNone:
		return "none"
	case SabotageSkipRecovery:
		return "skip-recovery"
	case SabotageCorruptParity:
		return "corrupt-parity"
	default:
		return fmt.Sprintf("Sabotage(%d)", int(s))
	}
}

// Config parameterizes a campaign over one scheme.
type Config struct {
	// Scheme is the registry name. It must build to a *ftl.Kernel: the
	// campaign drives the kernel's recovery procedure, which nflexTLC (its own
	// engine, with its own Recover) does not share.
	Scheme string
	// Geometry of the simulated device; the zero value means
	// nand.TestGeometry() — small enough that the prefill pushes every
	// trial into steady-state GC.
	Geometry nand.Geometry
	// Ops is the size of the post-prefill operation window the crash point
	// is sampled from (default 600).
	Ops int
	// Trials to run (default 1). Trial indices are Start..Start+Trials-1.
	Trials int
	// Seed is the campaign master seed; trial i uses Split(seed, i+1).
	Seed uint64
	// Start offsets the first trial index, so a failing trial from a big
	// campaign can be rerun alone: -seed S -start I -trials 1.
	Start int
	// Workers sizes the worker pool (default 1; outcomes are identical at
	// any value).
	Workers int
	// Sabotage injects a deliberate fault (see Sabotage).
	Sabotage Sabotage
}

func (c Config) withDefaults() Config {
	if c.Geometry == (nand.Geometry{}) {
		c.Geometry = nand.TestGeometry()
	}
	if c.Ops <= 0 {
		c.Ops = 600
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Outcome records one trial. All fields are plain data: two campaigns with
// the same Config but different worker counts produce DeepEqual outcome
// slices.
type Outcome struct {
	Trial   int    // absolute trial index (Config.Start + offset)
	Scheme  string // registry name
	CrashOp int    // operation boundary the power cut landed on
	Chip    int    // chip the cut targeted
	// Injected reports whether a destructive MSB window was actually open
	// on the target chip (the cut destroyed a paired LSB+MSB).
	Injected bool
	// FromGC marks an injected cut that interrupted a GC relocation (the
	// strictest recovery obligation: that data was acknowledged).
	FromGC bool
	// MetaMode is the metadata-survival draw for parity-backed schemes:
	// 0 = runtime parity refs survived, 1 = refs lost and rebuilt from
	// flash (RebuildParityRefs), 2 = refs lost, recovery must locate parity
	// by scanning spare areas.
	MetaMode int
	// Recovered/RolledBack/Dropped mirror the RecoveryReport counts.
	Recovered  int
	RolledBack int
	Dropped    int
	// PagesRead totals recovery-path page reads (recovery scan + parity
	// ref rebuild), the paper's reboot-overhead currency.
	PagesRead int
	// RecoveryTime is the virtual-time cost of the recovery passes.
	RecoveryTime sim.Time
	// Violations lists every invariant breach; empty means the trial
	// passed.
	Violations []string
}

// Report aggregates a campaign.
type Report struct {
	Scheme     string
	Trials     int
	Injected   int // trials where the cut destroyed a programming pair
	FromGC     int // injected trials that interrupted a GC relocation
	Failed     int // trials with at least one violation
	Recovered  int // parity reconstructions across all trials
	RolledBack int
	Dropped    int
	Outcomes   []Outcome // per-trial, in trial order
}

// FirstFailure returns the lowest-index failing trial.
func (r Report) FirstFailure() (Outcome, bool) {
	for _, o := range r.Outcomes {
		if len(o.Violations) > 0 {
			return o, true
		}
	}
	return Outcome{}, false
}

// ReproArgs renders the flag string that reruns exactly one trial of this
// campaign (minimized reproducer for a failing outcome).
func (c Config) ReproArgs(o Outcome) string {
	return fmt.Sprintf("-ftl %s -seed %d -start %d -trials 1 -ops %d", o.Scheme, c.Seed, o.Trial, c.withDefaults().Ops)
}

// Campaignable reports whether a registry scheme can run under the
// campaign: it must build into a *ftl.Kernel, whose recovery procedure the
// campaign drives (nflexTLC is a separate engine and does not).
func Campaignable(name string) bool {
	spec, ok := ftl.Lookup(name)
	if !ok {
		return false
	}
	h, err := spec.New(ftl.BuildEnv{
		Geometry: nand.TestGeometry(),
		Config:   ftl.DefaultConfig(),
		Flex:     ftl.DefaultFlexParams(),
	})
	if err != nil {
		return false
	}
	_, isKernel := h.(*ftl.Kernel)
	return isKernel
}

// Run executes the campaign on a bounded worker pool. Outcomes depend only
// on (Config minus Workers/Metrics), never on scheduling; the aggregate
// report and metrics are folded single-threaded after all trials finish.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	spec, ok := ftl.Lookup(cfg.Scheme)
	if !ok {
		return Report{}, fmt.Errorf("crash: unknown scheme %q", cfg.Scheme)
	}
	outs, err := par.Map(cfg.Workers, cfg.Trials, func(_, t int) (Outcome, error) {
		return runTrial(cfg, spec, cfg.Start+t)
	})
	if err != nil {
		return Report{}, err
	}
	rep := Report{Scheme: cfg.Scheme, Trials: len(outs), Outcomes: outs}
	for _, o := range outs {
		if o.Injected {
			rep.Injected++
		}
		if o.FromGC {
			rep.FromGC++
		}
		if len(o.Violations) > 0 {
			rep.Failed++
		}
		rep.Recovered += o.Recovered
		rep.RolledBack += o.RolledBack
		rep.Dropped += o.Dropped
	}
	return rep, nil
}

// RecoveryCost summarizes the reboot-time overhead of the trials that ran a
// recovery pass (Injected, or PagesRead > 0), the paper's Section 3.3 cost
// currency. The medians are exact nearest-rank order statistics, the maxima
// exact maxima.
type RecoveryCost struct {
	Trials             int
	PagesP50, PagesMax int
	TimeP50, TimeMax   sim.Time
}

// RecoveryCostOf scans the outcomes of one or more campaigns.
func RecoveryCostOf(outcomes []Outcome) RecoveryCost {
	var pages []int
	var times []sim.Time
	for _, o := range outcomes {
		if o.Injected || o.PagesRead > 0 {
			pages = append(pages, o.PagesRead)
			times = append(times, o.RecoveryTime)
		}
	}
	if len(pages) == 0 {
		return RecoveryCost{}
	}
	slices.Sort(pages)
	slices.Sort(times)
	mid := (len(pages)+1)/2 - 1 // sorted[ceil(n/2)-1]
	return RecoveryCost{
		Trials:   len(pages),
		PagesP50: pages[mid], PagesMax: pages[len(pages)-1],
		TimeP50: times[mid], TimeMax: times[len(times)-1],
	}
}
