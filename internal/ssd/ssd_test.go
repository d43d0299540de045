package ssd

import (
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

func newSystem(t testing.TB, scheme string) *System {
	t.Helper()
	rules := core.RPS
	if scheme == "pageFTL" {
		rules = core.FPS
	}
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(),
		Timing:   nand.DefaultTiming(),
		Rules:    rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	var f ftl.FTL
	switch scheme {
	case "pageFTL":
		f, err = ftl.NewPageFTL(dev, ftl.DefaultConfig())
	case "flexFTL":
		f, err = ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	default:
		t.Fatalf("unknown scheme %s", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(f, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{BufferPages: 0, BandwidthWindow: 1, IdleThreshold: 0, PrefillFraction: 0.5},
		{BufferPages: 1, BandwidthWindow: 0, IdleThreshold: 0, PrefillFraction: 0.5},
		{BufferPages: 1, BandwidthWindow: 1, IdleThreshold: -1, PrefillFraction: 0.5},
		{BufferPages: 1, BandwidthWindow: 1, IdleThreshold: 0, PrefillFraction: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPrefillResetsCounters(t *testing.T) {
	sys := newSystem(t, "pageFTL")
	dur, err := sys.Prefill()
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("prefill consumed no virtual time")
	}
	if st := sys.F.Stats(); st.HostWrites != 0 {
		t.Errorf("counters not reset after prefill: %+v", st)
	}
	// Prefilled pages are readable.
	if _, err := sys.F.Read(0, dur); err != nil {
		t.Errorf("prefilled LPN unreadable: %v", err)
	}
}

func TestRunSmallWorkload(t *testing.T) {
	for _, scheme := range []string{"pageFTL", "flexFTL"} {
		t.Run(scheme, func(t *testing.T) {
			sys := newSystem(t, scheme)
			if _, err := sys.Prefill(); err != nil {
				t.Fatal(err)
			}
			gen, err := workload.New(workload.Varmail(), sys.F.LogicalPages(), 3000, 17)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(gen)
			if err != nil {
				t.Fatal(err)
			}
			if res.FTLName != scheme || res.Workload != "Varmail" {
				t.Errorf("labels: %+v", res)
			}
			m := res.Metrics
			if m.Requests != 3000 {
				t.Errorf("requests = %d", m.Requests)
			}
			if m.IOPS <= 0 {
				t.Error("IOPS not positive")
			}
			if m.ActiveTime <= 0 || m.ActiveTime > m.Makespan {
				t.Errorf("active %v vs makespan %v", m.ActiveTime, m.Makespan)
			}
			if m.BandwidthCDF.N() == 0 {
				t.Error("no bandwidth windows recorded")
			}
			if res.Stats.HostWrites == 0 {
				t.Error("no host writes recorded in FTL stats")
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() RunResult {
		sys := newSystem(t, "flexFTL")
		if _, err := sys.Prefill(); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(workload.OLTP(), sys.F.LogicalPages(), 2000, 23)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(gen)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Metrics.IOPS != b.Metrics.IOPS || a.Stats != b.Stats ||
		a.Metrics.ActiveTime != b.Metrics.ActiveTime {
		t.Errorf("runs diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

// TestBackpressure: a buffer of one page forces admission to wait for the
// previous program, so write acknowledgements spread out in time.
func TestBackpressure(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.FPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewPageFTL(dev, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BufferPages = 1
	cfg.PrefillFraction = 0
	sys, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of simultaneous single-page writes.
	var reqs []workload.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, workload.Request{Arrival: 0, Op: workload.OpWrite, Page: int64(i), Pages: 1})
	}
	res, err := sys.Run(&sliceGen{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	// With one slot, response times must grow roughly linearly with queue
	// position; the max is far above the min.
	rt := res.Metrics.ResponseTime
	if rt.Max < 10*1000 { // later writes wait many program times (us)
		t.Errorf("max response %vus too small for backpressure", rt.Max)
	}
	if rt.Min > float64(sim.Millisecond) {
		t.Errorf("first write should admit immediately, got %vus", rt.Min)
	}
}

// TestIdleWindowsTriggerBGC: a workload with long gaps must produce
// background GC activity once space pressure exists.
func TestIdleWindowsTriggerBGC(t *testing.T) {
	sys := newSystem(t, "flexFTL")
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.Webserver(), sys.F.LogicalPages(), 4000, 29)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BackgroundGCs == 0 {
		t.Log("note: no background GC (space pressure may not have built); stats:", res.Stats)
	}
	// Active time excludes the large Webserver idle gaps.
	if res.Metrics.ActiveTime >= res.Metrics.Makespan {
		t.Errorf("active time %v did not exclude idle (makespan %v)",
			res.Metrics.ActiveTime, res.Metrics.Makespan)
	}
}

// TestTrimsThroughRunner: trim requests flow through the runner into the
// FTL's mapping table and the metrics.
func TestTrimsThroughRunner(t *testing.T) {
	sys := newSystem(t, "flexFTL")
	reqs := []workload.Request{
		{Arrival: 0, Op: workload.OpWrite, Page: 0, Pages: 4},
		{Arrival: 10 * sim.Millisecond, Op: workload.OpTrim, Page: 0, Pages: 2},
		{Arrival: 20 * sim.Millisecond, Op: workload.OpRead, Page: 0, Pages: 4},
	}
	res, err := sys.Run(&sliceGen{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Trims != 1 {
		t.Errorf("metrics trims = %d", res.Metrics.Trims)
	}
	if res.Stats.HostTrims != 2 {
		t.Errorf("ftl trims = %d, want 2 pages", res.Stats.HostTrims)
	}
	// The read of trimmed pages is tolerated (zero-fill), the rest served.
	if res.Metrics.Reads != 1 {
		t.Errorf("reads = %d", res.Metrics.Reads)
	}
}

// trimStub is a minimal Host whose trims cost real virtual time; it pins
// the runner's dispatch semantics for multi-page trim requests.
type trimStub struct {
	delta  sim.Time   // per-trim latency
	issued []sim.Time // the `now` each Trim was issued at
	st     ftl.Stats
}

func (s *trimStub) Name() string             { return "trimStub" }
func (s *trimStub) LogicalPages() int64      { return 1024 }
func (s *trimStub) PageSize() int            { return 4096 }
func (s *trimStub) Idle(now, until sim.Time) {}
func (s *trimStub) Stats() ftl.Stats         { return s.st }
func (s *trimStub) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	s.st.HostWrites++
	return now + s.delta, nil
}
func (s *trimStub) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s.st.HostReads++
	return now + s.delta, nil
}
func (s *trimStub) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	s.issued = append(s.issued, now)
	s.st.HostTrims++
	return now + s.delta, nil
}

// TestTrimMaxCompletion: the pages of one trim request are independent
// mapping operations — all issue at the request's arrival and the request
// completes when the slowest does, like reads. A regression here would chain
// them head to tail and charge pages×delta instead of delta.
func TestTrimMaxCompletion(t *testing.T) {
	const delta = 100 * sim.Microsecond
	stub := &trimStub{delta: delta}
	sys, err := New(stub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	arrival := 5 * sim.Millisecond
	reqs := []workload.Request{
		{Arrival: arrival, Op: workload.OpTrim, Page: 0, Pages: 4},
	}
	res, err := sys.Run(&sliceGen{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(stub.issued) != 4 {
		t.Fatalf("trims issued = %d, want 4", len(stub.issued))
	}
	for i, at := range stub.issued {
		if at != arrival {
			t.Errorf("trim %d issued at %v, want arrival %v (serialized dispatch)", i, at, arrival)
		}
	}
	// The request's response time is one trim latency, not four.
	if got := res.Metrics.ResponseTime.Max; got != float64(delta) {
		t.Errorf("trim response %v us, want %v us (max-completion)", got, float64(delta))
	}
}

// TestResponseSplit: read and write response populations are separated.
func TestResponseSplit(t *testing.T) {
	sys := newSystem(t, "pageFTL")
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.Varmail(), sys.F.LogicalPages(), 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.ReadResponse.Max <= 0 {
		t.Error("read response population empty")
	}
	if m.WriteResponse.Max < 0 {
		t.Error("write response population broken")
	}
	// The combined population bounds both classes.
	if m.ResponseTime.Max < m.ReadResponse.Max || m.ResponseTime.Max < m.WriteResponse.Max {
		t.Error("combined response max below a class max")
	}
}

// TestZeroPrefillRun: the runner works from a blank device too.
func TestZeroPrefillRun(t *testing.T) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.TestGeometry(), Timing: nand.DefaultTiming(), Rules: core.FPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewPageFTL(dev, ftl.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PrefillFraction = 0
	sys, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := sys.Prefill(); err != nil || d != 0 {
		t.Fatalf("zero prefill: %v, %v", d, err)
	}
	gen, err := workload.New(workload.OLTP(), f.LogicalPages(), 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(gen); err != nil {
		t.Fatal(err)
	}
}

// TestPaperGeometrySmoke exercises the exact 16 GB BlueDBM configuration end
// to end — 8 channels x 4 chips, 512 blocks/chip, 256 x 4 KB pages — to
// catch any overflow or scaling issue hidden by the small test geometries.
func TestPaperGeometrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16 GB geometry in -short mode")
	}
	dev, err := nand.NewDevice(nand.Config{
		Geometry: nand.DefaultGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PrefillFraction = 0.02 // 2% of 3.67M logical pages keeps the smoke fast
	sys, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(workload.Varmail(), f.LogicalPages(), 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Requests != 20000 || res.Metrics.IOPS <= 0 {
		t.Errorf("paper geometry run incomplete: %+v", res.Metrics)
	}
	// The 32-chip device should sustain a much higher peak than the
	// 8-chip evaluation geometry.
	if res.Metrics.PeakWriteBandwidthMBs < 40 {
		t.Errorf("peak bandwidth %v MB/s suspiciously low for 32 chips",
			res.Metrics.PeakWriteBandwidthMBs)
	}
}

// sliceGen replays a fixed request slice.
type sliceGen struct {
	reqs []workload.Request
	i    int
}

func (s *sliceGen) Name() string { return "slice" }
func (s *sliceGen) Next() (workload.Request, bool) {
	if s.i >= len(s.reqs) {
		return workload.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

func TestReadsOfUnmappedPagesTolerated(t *testing.T) {
	sys := newSystem(t, "pageFTL")
	cfgReqs := []workload.Request{
		{Arrival: 0, Op: workload.OpWrite, Page: 0, Pages: 1},
		{Arrival: 10, Op: workload.OpRead, Page: 0, Pages: 4}, // pages 1..3 unmapped
	}
	res, err := sys.Run(&sliceGen{reqs: cfgReqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Requests != 2 {
		t.Errorf("requests = %d", res.Metrics.Requests)
	}
}
