package ftl

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nand"
	"flexftl/internal/rel"
)

// BuildEnv carries everything a registered FTL constructor may need. Specs
// build their own device — the rule set an FTL requires (FPS vs RPS) and the
// bits per cell it is defined on are part of the scheme, not the caller's
// business.
type BuildEnv struct {
	// Geometry of the device to simulate (nflexTLC is defined on
	// nand.TLCGeometry and ignores this).
	Geometry nand.Geometry
	// Config is the shared FTL configuration (over-provisioning, GC knobs).
	Config Config
	// Flex parameterizes the adaptive allocator for schemes that mount it.
	Flex FlexParams
	// Reliability, when non-nil, mounts the calibrated BER model on the
	// device the spec builds, so reads classify into clean / corrected-with-
	// retry / uncorrectable. Pair it with Config.Reliability to also enable
	// the kernel's responses. nflexTLC mounts neither and refuses both.
	Reliability *rel.Config
}

// Spec describes one registered FTL: its name, the program-order scheme its
// device enforces, and a constructor.
type Spec struct {
	// Name is the registry key ("pageFTL", "flexFTL", "rtfFTL-adaptive", ...).
	Name string
	// Rules names the device rule set the scheme runs on ("FPS", "RPS", or a
	// device-specific label like "TLC-nPO").
	Rules string
	// Description is a one-line summary for -list output.
	Description string
	// Backup names the scheme's power-cut protection ("none", "pairParity",
	// "blockParity", or a device-specific label). The crash campaign derives
	// its invariant mode from it: parity-backed schemes must preserve every
	// acknowledged write across a power cut, "none" schemes must detect (not
	// mask) the loss.
	Backup string
	// Hybrid marks policy combinations that exist only as registry entries
	// (no paper counterpart); the ablation driver reports them separately.
	Hybrid bool
	// Placement names the scheme's placement policy when it is not the
	// single-stream default ("hotcold", "wearAware"; empty = "single").
	Placement string
	// IdleSpendsFree marks schemes whose idle work consumes capacity (the
	// return-to-fast padding); conformance tests relax free-space checks.
	IdleSpendsFree bool
	// New builds the FTL over a fresh device.
	New func(env BuildEnv) (FTL, error)
}

var registry = struct {
	names []string
	specs map[string]Spec
}{specs: make(map[string]Spec)}

// Register adds a spec to the registry. It is meant to be called from init
// functions (the registry is not locked); registering a duplicate or an
// incomplete spec panics.
func Register(s Spec) {
	if s.Name == "" || s.New == nil {
		panic("ftl: Register needs a name and a constructor")
	}
	if _, dup := registry.specs[s.Name]; dup {
		panic(fmt.Sprintf("ftl: duplicate registration of %q", s.Name))
	}
	registry.names = append(registry.names, s.Name)
	registry.specs[s.Name] = s
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	s, ok := registry.specs[name]
	return s, ok
}

// Names returns all registered names in registration order.
func Names() []string {
	return append([]string(nil), registry.names...)
}

// BuildFTL constructs the named FTL over a fresh device.
func BuildFTL(name string, env BuildEnv) (FTL, error) {
	s, ok := registry.specs[name]
	if !ok {
		return nil, fmt.Errorf("ftl: unknown scheme %q (have %v)", name, Names())
	}
	return s.New(env)
}

// Build is BuildFTL narrowed to the Host surface, for callers that
// interpose Host decorators (bench/).
func Build(name string, env BuildEnv) (Host, error) { return BuildFTL(name, env) }

// mlcDevice builds the NAND device for an MLC scheme under the named rule
// set.
func mlcDevice(env BuildEnv, rules string) (*nand.Device, error) {
	var rs core.RuleSet
	switch rules {
	case "FPS":
		rs = core.FPS
	case "RPS":
		rs = core.RPS
	default:
		return nil, fmt.Errorf("ftl: unknown rule set %q", rules)
	}
	return nand.NewDevice(nand.Config{
		Geometry:    env.Geometry,
		Timing:      nand.DefaultTiming(),
		Rules:       rs,
		Reliability: env.Reliability,
	})
}

// mlcEntry wraps an MLC kernel constructor as a registry constructor.
func mlcEntry(rules string, build func(dev *nand.Device, env BuildEnv) (*Kernel, error)) func(BuildEnv) (FTL, error) {
	return func(env BuildEnv) (FTL, error) {
		dev, err := mlcDevice(env, rules)
		if err != nil {
			return nil, err
		}
		return build(dev, env)
	}
}

func init() {
	// The four FTLs of the paper's evaluation, in the paper's order.
	Register(Spec{
		Name:        "pageFTL",
		Backup:      "none",
		Rules:       "FPS",
		Description: "baseline FPS page mapping, no paired-page backup",
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewPageFTL(dev, env.Config)
		}),
	})
	Register(Spec{
		Name:        "parityFTL",
		Backup:      "pairParity",
		Rules:       "FPS",
		Description: "FPS with XOR parity pre-backup per LSB pair",
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewParityFTL(dev, env.Config)
		}),
	})
	Register(Spec{
		Name:           "rtfFTL",
		Backup:         "pairParity",
		Rules:          "FPS",
		Description:    "return-to-fast active-block pool with pair parity",
		IdleSpendsFree: true,
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewRTFFTL(dev, env.Config)
		}),
	})
	Register(Spec{
		Name:        "flexFTL",
		Backup:      "blockParity",
		Rules:       "RPS",
		Description: "RPS two-phase ordering, block parity, adaptive u/q allocation",
		New: mlcEntry("RPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewFlexFTL(dev, env.Config, env.Flex)
		}),
	})

	// Hybrids: policy combinations with no paper counterpart, possible only
	// because every scheme is a Kernel configuration. They quantify one
	// design axis each in the ablation driver.
	Register(Spec{
		Name:        "flexFTL-nobackup",
		Backup:      "none",
		Rules:       "RPS",
		Description: "flexFTL without parity backup (upper bound; unsafe under power cuts)",
		Hybrid:      true,
		New: mlcEntry("RPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			if err := env.Flex.Validate(); err != nil {
				return nil, err
			}
			return NewKernel(dev, env.Config, KernelSpec{
				Name:           "flexFTL-nobackup",
				Order:          TwoPhaseOrderPolicy(),
				Backup:         NoBackupStrategy(),
				Alloc:          AdaptiveAllocPolicy(env.Flex),
				RetokenizeGC:   true,
				Predictive:     env.Flex.PredictiveBGC,
				PredictorAlpha: env.Flex.PredictorAlpha,
			})
		}),
	})
	// Placement hybrids: the same flexFTL / pageFTL policy stacks writing
	// through two temperature streams per chip (satellites of the placement
	// axis). "hotcold" separates frequently-rewritten LPNs from cold data;
	// "wearAware" additionally steers cold data onto worn blocks.
	Register(Spec{
		Name:        "flexFTL-hotcold",
		Backup:      "blockParity",
		Rules:       "RPS",
		Description: "flexFTL with hot/cold stream separation per chip",
		Hybrid:      true,
		Placement:   "hotcold",
		New: mlcEntry("RPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewFlexFTLPlaced(dev, env.Config, env.Flex, "flexFTL-hotcold",
				HotColdPlacementPolicy(DefaultHotColdParams()))
		}),
	})
	Register(Spec{
		Name:        "flexFTL-wearAware",
		Backup:      "blockParity",
		Rules:       "RPS",
		Description: "flexFTL hot/cold streams with wear-directed block choice",
		Hybrid:      true,
		Placement:   "wearAware",
		New: mlcEntry("RPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewFlexFTLPlaced(dev, env.Config, env.Flex, "flexFTL-wearAware",
				WearAwarePlacementPolicy(DefaultHotColdParams()))
		}),
	})
	Register(Spec{
		Name:        "pageFTL-hotcold",
		Backup:      "none",
		Rules:       "FPS",
		Description: "pageFTL with hot/cold stream separation per chip",
		Hybrid:      true,
		Placement:   "hotcold",
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewPageFTLPlaced(dev, env.Config, "pageFTL-hotcold",
				HotColdPlacementPolicy(DefaultHotColdParams()))
		}),
	})
	Register(Spec{
		Name:        "pageFTL-wearAware",
		Backup:      "none",
		Rules:       "FPS",
		Description: "pageFTL hot/cold streams with wear-directed block choice",
		Hybrid:      true,
		Placement:   "wearAware",
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			return NewPageFTLPlaced(dev, env.Config, "pageFTL-wearAware",
				WearAwarePlacementPolicy(DefaultHotColdParams()))
		}),
	})
	Register(Spec{
		Name:           "rtfFTL-adaptive",
		Backup:         "pairParity",
		Rules:          "FPS",
		Description:    "return-to-fast pool driven by the adaptive u/q allocator",
		Hybrid:         true,
		IdleSpendsFree: true,
		New: mlcEntry("FPS", func(dev *nand.Device, env BuildEnv) (*Kernel, error) {
			if err := env.Flex.Validate(); err != nil {
				return nil, err
			}
			return NewKernel(dev, env.Config, KernelSpec{
				Name:   "rtfFTL-adaptive",
				Order:  FPSPoolOrderPolicy(RTFActiveBlocksPerChip),
				Backup: PairParityBackup(FPSParityPairSize),
				Alloc:  AdaptiveAllocPolicy(env.Flex),
			})
		}),
	})
}
