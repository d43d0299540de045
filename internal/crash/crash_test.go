package crash

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/sim"
)

// paritySchemes are the registry schemes whose backup must preserve every
// acknowledged write across a power cut.
func paritySchemes(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range ftl.Names() {
		spec, _ := ftl.Lookup(name)
		if spec.Backup == "pairParity" || spec.Backup == "blockParity" {
			if !Campaignable(name) {
				t.Fatalf("parity scheme %q not campaignable", name)
			}
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		t.Fatal("no parity-backed schemes registered")
	}
	return out
}

func TestCampaignParitySchemesZeroViolations(t *testing.T) {
	for _, scheme := range paritySchemes(t) {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Config{Scheme: scheme, Trials: 25, Seed: 0xC0FFEE, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if f, bad := rep.FirstFailure(); bad {
				t.Fatalf("trial %d violated invariants: %v", f.Trial, f.Violations)
			}
		})
	}
}

// The block-parity scheme must actually get hit: across a modest campaign,
// power cuts land inside open destructive windows, parity reconstructions
// and rollbacks both fire, and at least one interrupted program is a GC
// relocation — the recovery path this PR's bugfix exists for.
func TestBlockParityCampaignExercisesRecovery(t *testing.T) {
	rep, err := Run(Config{Scheme: "flexFTL", Trials: 60, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f, bad := rep.FirstFailure(); bad {
		t.Fatalf("trial %d violated invariants: %v", f.Trial, f.Violations)
	}
	if rep.Injected == 0 {
		t.Fatal("no trial landed a power cut inside a destructive MSB window")
	}
	if rep.Recovered == 0 {
		t.Error("no trial reconstructed a parity-covered LSB page")
	}
	if rep.RolledBack == 0 {
		t.Error("no trial rolled an interrupted MSB program back to its superseded copy")
	}
	if rep.FromGC == 0 {
		t.Error("no power cut interrupted a background-GC MSB relocation")
	}
}

// No-backup schemes must detect the loss, not mask it; a campaign over them
// passes exactly when every destroyed page read fails and everything else
// survives strictly.
func TestNoBackupSchemesDetectLoss(t *testing.T) {
	for _, scheme := range []string{"pageFTL", "flexFTL-nobackup"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Config{Scheme: scheme, Trials: 30, Seed: 41, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if f, bad := rep.FirstFailure(); bad {
				t.Fatalf("trial %d violated invariants: %v", f.Trial, f.Violations)
			}
			if rep.Injected == 0 {
				t.Fatal("no trial landed a cut inside an open window; detection path untested")
			}
		})
	}
}

// Outcomes are a pure function of the config: any worker count produces the
// byte-identical campaign.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Scheme: "flexFTL", Trials: 12, Seed: 99}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	par8 := base
	par8.Workers = 8
	got, err := Run(par8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Outcomes, got.Outcomes) {
		t.Fatal("outcomes differ between 1 and 8 workers")
	}
}

// A failing trial from a large campaign reruns alone via Start.
func TestStartOffsetReproducesTrial(t *testing.T) {
	full, err := Run(Config{Scheme: "rtfFTL", Trials: 9, Seed: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(Config{Scheme: "rtfFTL", Trials: 1, Seed: 3, Start: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Outcomes[6], one.Outcomes[0]) {
		t.Fatalf("trial 6 rerun differs:\nfull: %+v\nrerun: %+v", full.Outcomes[6], one.Outcomes[0])
	}
}

// Sabotage proves the checker can fail: skipping recovery or corrupting the
// parity page must surface as violations.
func TestSabotageIsCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		sab  Sabotage
	}{
		{"skip-recovery", SabotageSkipRecovery},
		{"corrupt-parity", SabotageCorruptParity},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Config{Scheme: "flexFTL", Trials: 40, Seed: 1234, Workers: 4, Sabotage: tc.sab})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed == 0 {
				t.Fatalf("sabotage %v went undetected over %d trials (%d injected)",
					tc.sab, rep.Trials, rep.Injected)
			}
		})
	}
}

// TestMetricsRecorded: the recovery-cost summary flexrecover prints agrees
// with a hand scan of the campaign's outcomes.
func TestMetricsRecorded(t *testing.T) {
	rep, err := Run(Config{Scheme: "flexFTL", Trials: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var want RecoveryCost
	var pages []int
	var times []sim.Time
	for _, o := range rep.Outcomes {
		if !o.Injected && o.PagesRead == 0 {
			continue
		}
		want.Trials++
		want.PagesMax = max(want.PagesMax, o.PagesRead)
		want.TimeMax = max(want.TimeMax, o.RecoveryTime)
		pages = append(pages, o.PagesRead)
		times = append(times, o.RecoveryTime)
	}
	if want.Trials == 0 {
		t.Fatal("no trial ran a recovery pass; the summary is untested")
	}
	sort.Ints(pages)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	rank := int(math.Ceil(0.5*float64(want.Trials))) - 1
	want.PagesP50, want.TimeP50 = pages[rank], times[rank]
	if got := RecoveryCostOf(rep.Outcomes); got != want {
		t.Errorf("RecoveryCostOf = %+v, hand scan %+v", got, want)
	}
	if got := RecoveryCostOf(nil); got != (RecoveryCost{}) {
		t.Errorf("RecoveryCostOf(nil) = %+v, want zero", got)
	}
}

func TestReproArgs(t *testing.T) {
	cfg := Config{Scheme: "flexFTL", Seed: 42, Ops: 123}
	line := cfg.ReproArgs(Outcome{Scheme: "flexFTL", Trial: 17})
	for _, want := range []string{"-ftl flexFTL", "-seed 42", "-start 17", "-trials 1", "-ops 123"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro line %q missing %q", line, want)
		}
	}
}

func TestUnknownAndUnsupportedSchemes(t *testing.T) {
	if _, err := Run(Config{Scheme: "no-such-ftl"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if Campaignable("nflexTLC") {
		t.Fatal("TLC scheme reported campaignable; it is not an ftl.Kernel")
	}
	if _, err := Run(Config{Scheme: "nflexTLC", Trials: 1}); err == nil {
		t.Fatal("campaign over the TLC scheme should fail to build a kernel")
	}
}
