package experiments

import (
	"reflect"
	"testing"
)

// TestAgingResponsesDeferFirstLoss is the aging-campaign smoke: on a pre-worn
// device aged through retention epochs, the no-response baseline eventually
// loses data, while scrubbing/refresh keep (or at least push) the first
// uncorrectable read out — the headline comparison of `flexbench -exp
// reliability`. RunAging itself enforces the crash-style invariants along the
// way: every served read returns the acknowledged payload, every loss is a
// loud rel.ErrUncorrectable, and lost pages stay lost.
func TestAgingResponsesDeferFirstLoss(t *testing.T) {
	for _, scheme := range []string{"pageFTL", "flexFTL"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			base, err := RunAging(AgingCell(scheme, false, 1), DefaultAgingConfig())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := RunAging(AgingCell(scheme, true, 1), DefaultAgingConfig())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("baseline:  %+v", base)
			t.Logf("responses: %+v", resp)
			if base.FirstLossEpoch < 0 {
				t.Fatalf("baseline never lost data — the campaign's stress point is too soft to show deferral (report %+v)", base)
			}
			if base.Retried == 0 {
				t.Errorf("baseline saw no retried reads at the retention knee (report %+v)", base)
			}
			if resp.FirstLossEpoch >= 0 && resp.FirstLossEpoch <= base.FirstLossEpoch {
				t.Errorf("responses did not defer the first loss: baseline epoch %d, responses epoch %d",
					base.FirstLossEpoch, resp.FirstLossEpoch)
			}
			if resp.RefreshedBlocks == 0 {
				t.Errorf("responses-on run refreshed no blocks (report %+v)", resp)
			}
			if resp.ScrubReads == 0 {
				t.Errorf("responses-on run issued no patrol reads (report %+v)", resp)
			}
		})
	}
}

// TestAgingDeterministic: the campaign is a pure function of its cell and
// config — identical runs produce identical reports (the per-read model hash
// has no hidden global state), and the sweep's reports do not depend on how
// many workers run its campaigns.
func TestAgingDeterministic(t *testing.T) {
	c, cfg := AgingCell("flexFTL", true, 1), DefaultAgingConfig()
	a, err := RunAging(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAging(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical campaigns diverged:\n%+v\n%+v", a, b)
	}
	schemes := []string{"pageFTL", "flexFTL"}
	serial, err := AgingSweep(schemes, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AgingSweep(schemes, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2*len(schemes) || !reflect.DeepEqual(serial, parallel) {
		t.Errorf("aging sweep differs between 1 and 4 workers:\n%+v\n%+v", serial, parallel)
	}
}
