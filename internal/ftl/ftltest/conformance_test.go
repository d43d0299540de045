package ftltest_test

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/ftl/ftltest"
	"flexftl/internal/ftl/nflex" // also registers the nflexTLC scheme
	"flexftl/internal/nand"
)

// TestRegistryConformance drives every scheme in the ftl registry — the four
// paper FTLs, the hybrid policy combinations, and nflexTLC — through the
// full white-box conformance suite: each mounts an ftl.Base, which the
// Fixture carries, and Spec.IdleSpendsFree selects the idle-test variant.
func TestRegistryConformance(t *testing.T) {
	for _, name := range ftl.Names() {
		spec, ok := ftl.Lookup(name)
		if !ok {
			t.Fatalf("registry lists %q but Lookup fails", name)
		}
		t.Run(name, func(t *testing.T) {
			ftltest.Run(t, func(tb testing.TB) ftltest.Fixture {
				f, err := ftl.BuildFTL(name, ftl.BuildEnv{
					Geometry: nand.TestGeometry(),
					Config:   ftl.DefaultConfig(),
					Flex:     ftl.DefaultFlexParams(),
				})
				if err != nil {
					tb.Fatal(err)
				}
				fx := ftltest.Fixture{F: f, IdleConsumesFree: spec.IdleSpendsFree}
				switch f := f.(type) {
				case *ftl.Kernel:
					fx.B = f.Base
				case *nflex.FTL:
					fx.B = f.Base
				default:
					tb.Fatalf("%s is a %T: no Base to inspect", name, f)
				}
				return fx
			})
		})
	}
}
