package main

import (
	"fmt"
	"time"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	_ "flexftl/internal/ftl/nflex" // registers the nflexTLC scheme
	"flexftl/internal/nand"
	"flexftl/internal/rel"
	"flexftl/internal/ssd"
	"flexftl/internal/workload"
)

// part is one (scheme, profile, request count) simulation. Most workloads
// have one; fps_baselines sums three.
type part struct {
	scheme   string
	profile  func() workload.Profile
	requests int
	geometry nand.Geometry // ignored by nflexTLC, which brings its own device
	// aged mounts the BER model and the kernel's reliability responses on a
	// device whose every block is pre-worn agedCycles P/E cycles.
	aged bool
}

// spec is one named benchmark workload.
type spec struct {
	name  string
	why   string
	parts []part
	// workers > 1 runs RunSharded(gen, workers) instead of Run.
	workers int
}

const (
	tlcScheme  = "nflexTLC"
	agedCycles = 6000
	// relSeed keys the device BER model's per-read hash. It is part of the
	// simulated device, not of the generated input, so -seed leaves it alone.
	relSeed = 7
	// -scale also shrinks the two devices whose setup alone takes a second
	// or more (the 16 GB geometry's prefill, the aged device's pre-wear), by
	// at most these factors, so smoke runs stay short.
	paperShrinkMax = 16
	agedShrinkMax  = 4
)

// paperGeometry is the paper's 16 GB device (8 ch x 4 chips x 512 blocks x
// 128 word lines).
func paperGeometry() nand.Geometry {
	g := nand.DefaultGeometry()
	g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.WordLinesPerBlock = 8, 4, 512, 128
	return g
}

// specs returns the eight workloads. scale divides every request count, and
// the blocks per chip of the paper-geometry and aged devices.
func specs(scale int) []spec {
	eval := experiments.EvalGeometry()
	paper := paperGeometry()
	paper.BlocksPerChip /= min(scale, paperShrinkMax)
	agedGeo := eval
	agedGeo.BlocksPerChip /= min(scale, agedShrinkMax)
	n := func(requests int) int { return max(requests/scale, 1) }
	one := func(scheme string, prof func() workload.Profile, requests int, g nand.Geometry) []part {
		return []part{{scheme: scheme, profile: prof, requests: n(requests), geometry: g}}
	}
	ntrx := one("flexFTL", workload.NTRX, 1_500_000, eval)
	aged := one("flexFTL", workload.OLTP, 1_000_000, agedGeo)
	aged[0].aged = true
	return []spec{
		{name: "ntrx_gc", parts: ntrx,
			why: "write-dominant, no idle: foreground GC and buffer backpressure; kernel write path, GC and nand program/erase do the work"},
		{name: "oltp_read", parts: one("flexFTL", workload.OLTP, 2_500_000, eval),
			why: "70% reads: mapper lookup, ReadInto, generator and metrics finalise dominate; a write-path or GC change should barely move it"},
		{name: "fileserver_idle", parts: one("flexFTL", workload.Fileserver, 1_200_000, eval),
			why: "large requests, trims, long idle gaps: background GC in Host.Idle, almost no foreground GC"},
		{name: "ntrx_sharded", parts: ntrx, workers: 2,
			why: "same input as ntrx_gc through RunSharded(gen, 2): epoch planner, barrier and shard runner; the serial-vs-sharded decision pair"},
		{name: "fps_baselines", parts: []part{
			{scheme: "pageFTL", profile: workload.NTRX, requests: n(600_000), geometry: eval},
			{scheme: "parityFTL", profile: workload.NTRX, requests: n(600_000), geometry: eval},
			{scheme: "rtfFTL", profile: workload.NTRX, requests: n(600_000), geometry: eval},
		}, why: "pageFTL, parityFTL and rtfFTL summed: the same kernel under the FPS order/backup/alloc policies the paper compares against"},
		{name: "tlc_varmail", parts: one(tlcScheme, workload.Varmail, 2_000_000, eval),
			why: "the second engine (ftl/nflex on nandn) with trims and idle GC; the row the MLC-is-Levels-2 unification must keep flat"},
		{name: "paper_geometry", parts: one("flexFTL", workload.Varmail, 1_500_000, paper),
			why: "the paper's 16 GB device: map and working set far beyond CPU cache, almost no GC (WAF 1.06), the longest setup with millions of first-touch page allocations"},
		{name: "oltp_aged_rel", parts: aged,
			why: "oltp_read's reads on a device pre-worn 6000 P/E with the BER model and ECC retry ladder on every read; rel and ecc dominate"},
	}
}

func findSpec(name string, scale int) (spec, error) {
	var names []string
	for _, s := range specs(scale) {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupTimes splits one setup into the runner phases the ssd layer reports.
type setupTimes struct {
	build, prewear, prefill time.Duration
	prefillPages            int64
}

func (a *setupTimes) add(b setupTimes) {
	a.build += b.build
	a.prewear += b.prewear
	a.prefill += b.prefill
	a.prefillPages += b.prefillPages
}

// system is one prefilled simulated SSD, ready to run.
type system struct {
	sys  *ssd.System
	host ftl.Host // the undecorated scheme
}

// setup builds the part's FTL and device, pre-wears it if asked, and prefills
// it through the runner. tr, when non-nil, is interposed between the runner
// and the FTL (disabled until the steady phase starts).
func (p part) setup(tr *tracer) (system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	env := ftl.BuildEnv{Geometry: p.geometry, Config: ftl.DefaultConfig(), Flex: ftl.DefaultFlexParams()}
	if p.aged {
		rc := rel.DefaultConfig(relSeed)
		env.Reliability = &rc
		env.Config.Reliability = ftl.DefaultRelPolicy()
	}
	h, err := ftl.Build(p.scheme, env)
	if err != nil {
		return system{}, st, err
	}
	driven := h
	if tr != nil {
		driven = tr.wrapHost(h)
	}
	sys, err := ssd.New(driven, ssd.DefaultConfig())
	if err != nil {
		return system{}, st, err
	}
	t1 := time.Now()
	st.build = t1.Sub(t0)
	if p.aged {
		f, ok := h.(ftl.FTL)
		if !ok {
			return system{}, st, fmt.Errorf("%s: aged workloads need an MLC device", p.scheme)
		}
		dev := f.Device()
		g := dev.Geometry()
		for c := 0; c < g.Chips(); c++ {
			for b := 0; b < g.BlocksPerChip; b++ {
				a := nand.BlockAddr{Chip: c, Block: b}
				for i := 0; i < agedCycles; i++ {
					if _, err := dev.Erase(a, 0); err != nil {
						return system{}, st, fmt.Errorf("pre-wear %v: %w", a, err)
					}
				}
			}
		}
	}
	t2 := time.Now()
	st.prewear = t2.Sub(t1)
	if _, err := sys.Prefill(); err != nil {
		return system{}, st, err
	}
	st.prefill = time.Since(t2)
	st.prefillPages = int64(float64(h.LogicalPages()) * ssd.DefaultConfig().PrefillFraction)
	return system{sys: sys, host: h}, st, nil
}

// generator builds the part's seeded request stream over the host's logical
// space.
func (p part) generator(h ftl.Host, seed uint64) (workload.Generator, error) {
	return workload.New(p.profile(), h.LogicalPages(), p.requests, seed)
}
