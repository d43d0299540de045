package ftltest_test

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/ftl/ftltest"
	_ "flexftl/internal/ftl/nflex" // registers the nflexTLC scheme
	"flexftl/internal/nand"
)

// TestRegistryConformance drives every scheme in the ftl registry — the four
// paper FTLs, the hybrid policy combinations, and nflexTLC — through the
// conformance suite. Kernels get the full white-box suite (the Fixture
// carries their Base, and Spec.IdleSpendsFree selects the idle-test
// variant); nflexTLC, a separate engine with no Base, gets the RunHost
// subset.
func TestRegistryConformance(t *testing.T) {
	for _, name := range ftl.Names() {
		spec, ok := ftl.Lookup(name)
		if !ok {
			t.Fatalf("registry lists %q but Lookup fails", name)
		}
		build := func(tb testing.TB) ftl.Host {
			h, err := ftl.Build(name, ftl.BuildEnv{
				Geometry: nand.TestGeometry(),
				Config:   ftl.DefaultConfig(),
				Flex:     ftl.DefaultFlexParams(),
			})
			if err != nil {
				tb.Fatal(err)
			}
			return h
		}
		t.Run(name, func(t *testing.T) {
			if _, kernel := build(t).(*ftl.Kernel); !kernel {
				ftltest.RunHost(t, build)
				return
			}
			ftltest.Run(t, func(tb testing.TB) ftltest.Fixture {
				k := build(tb).(*ftl.Kernel)
				return ftltest.Fixture{F: k, B: k.Base, IdleConsumesFree: spec.IdleSpendsFree}
			})
		})
	}
}
