// Command flexrecover runs the randomized sudden-power-off campaign of
// internal/crash over the registry's FTL schemes: every trial drives a
// seeded workload into steady state, cuts power at a random operation
// boundary on a random chip, runs the scheme's reboot procedures, and
// verifies the power-cut invariants (acknowledged data survives or the loss
// is detected, parity reconstructs destroyed LSB pages, interrupted GC
// relocations roll back, block accounting balances).
//
// A failing trial prints a one-line reproducer; the exit status is 1 when
// any trial violates an invariant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"flexftl/internal/crash"
	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"

	// Register the TLC scheme so -list shows the whole registry (it is not
	// campaignable — the campaign drives ftl.Kernel's recovery, and nflexTLC
	// is a separate engine — but the listing should say so rather than omit
	// it).
	_ "flexftl/internal/ftl/nflex"
)

func main() {
	var (
		schemes  = flag.String("ftl", "all", "comma-separated registry schemes, or \"all\"")
		trials   = flag.Int("trials", 100, "crash trials per scheme")
		seed     = flag.Uint64("seed", 1, "campaign master seed; trial i derives Split(seed, i+1)")
		start    = flag.Int("start", 0, "first trial index (rerun one failing trial with -start N -trials 1)")
		ops      = flag.Int("ops", 0, "post-prefill operation window the crash point is sampled from (0 = default)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); outcomes are identical at any value")
		full     = flag.Bool("full", false, "use the larger evaluation geometry instead of the small test geometry")
		sabotage = flag.String("sabotage", "none", "inject a deliberate fault: none, skip-recovery, corrupt-parity")
		list     = flag.Bool("list", false, "list campaignable schemes and exit")
	)
	flag.Parse()
	sab, err := parseSabotage(*sabotage)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexrecover:", err)
		os.Exit(2)
	}
	if *list {
		listSchemes(os.Stdout)
		return
	}
	var geometry nand.Geometry
	if *full {
		geometry = experiments.EvalGeometry()
	}
	failed, err := run(os.Stdout, runOpts{
		schemes:  *schemes,
		trials:   *trials,
		seed:     *seed,
		start:    *start,
		ops:      *ops,
		workers:  *workers,
		geometry: geometry,
		sabotage: sab,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexrecover:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func parseSabotage(s string) (crash.Sabotage, error) {
	switch s {
	case "none":
		return crash.SabotageNone, nil
	case "skip-recovery":
		return crash.SabotageSkipRecovery, nil
	case "corrupt-parity":
		return crash.SabotageCorruptParity, nil
	default:
		return 0, fmt.Errorf("unknown -sabotage %q (none, skip-recovery, corrupt-parity)", s)
	}
}

func listSchemes(w io.Writer) {
	for _, name := range ftl.Names() {
		spec, _ := ftl.Lookup(name)
		note := ""
		if !crash.Campaignable(name) {
			note = " (not campaignable: not an ftl.Kernel)"
		}
		fmt.Fprintf(w, "%-18s backup=%-11s %s%s\n", name, spec.Backup, spec.Description, note)
	}
}

type runOpts struct {
	schemes  string
	trials   int
	seed     uint64
	start    int
	ops      int
	workers  int
	geometry nand.Geometry
	sabotage crash.Sabotage
}

// run executes the campaign per scheme and reports; it returns whether any
// trial violated an invariant.
func run(w io.Writer, o runOpts) (failed bool, err error) {
	names, err := resolveSchemes(o.schemes)
	if err != nil {
		return false, err
	}
	var outcomes []crash.Outcome
	for _, name := range names {
		cfg := crash.Config{
			Scheme:   name,
			Geometry: o.geometry,
			Ops:      o.ops,
			Trials:   o.trials,
			Seed:     o.seed,
			Start:    o.start,
			Workers:  o.workers,
			Sabotage: o.sabotage,
		}
		rep, err := crash.Run(cfg)
		if err != nil {
			return failed, err
		}
		outcomes = append(outcomes, rep.Outcomes...)
		spec, _ := ftl.Lookup(name)
		fmt.Fprintf(w, "%-18s %4d trials  %3d cuts landed (%d during GC)  recovered %d  rolled back %d  dropped %d  violations %d\n",
			name+" ("+spec.Backup+")", rep.Trials, rep.Injected, rep.FromGC,
			rep.Recovered, rep.RolledBack, rep.Dropped, rep.Failed)
		if f, bad := rep.FirstFailure(); bad {
			failed = true
			fmt.Fprintf(w, "  FIRST FAILURE: trial %d (crash op %d, chip %d):\n", f.Trial, f.CrashOp, f.Chip)
			for _, v := range f.Violations {
				fmt.Fprintf(w, "    - %s\n", v)
			}
			fmt.Fprintf(w, "  reproduce: flexrecover %s\n", cfg.ReproArgs(f))
		}
	}
	if c := crash.RecoveryCostOf(outcomes); c.Trials > 0 {
		fmt.Fprintf(w, "recovery cost over %d recovering trials: pages read p50<=%d max<=%d, virtual time p50<=%dus max<=%dus\n",
			c.Trials, c.PagesP50, c.PagesMax, c.TimeP50, c.TimeMax)
	}
	return failed, nil
}

// resolveSchemes expands "all" to every campaignable registry scheme and
// validates explicit names.
func resolveSchemes(arg string) ([]string, error) {
	if arg == "all" {
		var names []string
		for _, name := range ftl.Names() {
			if crash.Campaignable(name) {
				names = append(names, name)
			}
		}
		return names, nil
	}
	var names []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := ftl.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown scheme %q (try -list)", name)
		}
		if !crash.Campaignable(name) {
			return nil, fmt.Errorf("scheme %q is not campaignable (the campaign needs an ftl.Kernel)", name)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no schemes selected")
	}
	return names, nil
}
