// Benchmarks regenerating the paper's tables and figures, one per exhibit,
// plus ablations of flexFTL's design choices. Each benchmark reports the
// simulated quantity as a custom metric (sim-*, next to the usual ns/op of
// simulator CPU cost), so `go test -bench=. -benchmem` doubles as a compact
// results table.
package flexftl_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/nand"
	"flexftl/internal/parity"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
	"flexftl/internal/stats"
	"flexftl/internal/vth"
	"flexftl/internal/workload"
)

// benchGeometry keeps per-iteration simulation cost low while retaining the
// multi-chip structure the FTLs exploit.
func benchGeometry() nand.Geometry {
	return nand.Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 64,
		WordLinesPerBlock: 16, PageSizeBytes: 4096, SpareBytes: 64,
	}
}

// BenchmarkFig1ProgramLatency measures the device-level program asymmetry of
// Figure 1: the virtual-time cost of LSB vs MSB page programs.
func BenchmarkFig1ProgramLatency(b *testing.B) {
	for _, typ := range []core.PageType{core.LSB, core.MSB} {
		b.Run(typ.String(), func(b *testing.B) {
			dev, err := nand.NewDevice(nand.Config{
				Geometry: benchGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
			})
			if err != nil {
				b.Fatal(err)
			}
			g := dev.Geometry()
			order := core.FPSOrder(g.WordLinesPerBlock)
			var total sim.Time
			n := 0
			now := sim.Time(0)
			blk, pos := 0, 0
			wrapped := false
			for i := 0; i < b.N; i++ {
				if pos == len(order) {
					blk, pos = blk+1, 0
					if blk == g.BlocksPerChip {
						blk, wrapped = 0, true
					}
					if wrapped {
						// Recycle: erase the block before refilling it.
						done, err := dev.Erase(nand.BlockAddr{Chip: 0, Block: blk}, now)
						if err != nil {
							b.Fatal(err)
						}
						now = done
					}
				}
				p := order[pos]
				pos++
				start := now
				done, err := dev.Program(nand.PageAddr{
					BlockAddr: nand.BlockAddr{Chip: 0, Block: blk}, Page: p,
				}, []byte{1}, nil, now)
				if err != nil {
					b.Fatal(err)
				}
				now = done
				if p.Type == typ {
					total += done - start
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(float64(total)/float64(n), "sim-us/program")
			}
		})
	}
}

// BenchmarkFig4aWPi runs the Figure 4(a) Monte-Carlo (one block per
// iteration) and reports the median WPi width sum per order.
func BenchmarkFig4aWPi(b *testing.B) {
	benchFig4(b, vth.Fresh, func(res vth.BlockResult) (float64, string) {
		return stats.Summarize(res.WPSums()).Median, "sim-WPi-V"
	})
}

// BenchmarkFig4bBER runs the Figure 4(b) Monte-Carlo at the worst-case
// operating condition and reports the median per-page BER.
func BenchmarkFig4bBER(b *testing.B) {
	benchFig4(b, vth.WorstCase, func(res vth.BlockResult) (float64, string) {
		return stats.Summarize(res.BERs()).Median, "sim-BER"
	})
}

func benchFig4(b *testing.B, stress vth.StressCondition, metric func(vth.BlockResult) (float64, string)) {
	const wl = 32
	params := vth.DefaultParams()
	params.CellsPerWordLine = 512
	model, err := vth.NewModel(params)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range []struct {
		name  string
		pages []core.Page
	}{
		{"FPS", core.FPSOrder(wl)},
		{"RPSfull", core.RPSFullOrder(wl)},
		{"RPShalf", core.RPSHalfOrder(wl)},
	} {
		b.Run(o.name, func(b *testing.B) {
			var last float64
			var unit string
			for i := 0; i < b.N; i++ {
				res, err := model.SimulateBlock(core.MLC(wl), o.pages, stress, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last, unit = metric(res)
			}
			b.ReportMetric(last, unit)
		})
	}
}

// BenchmarkTable1Workloads generates each Table 1 workload and reports its
// measured read fraction.
func BenchmarkTable1Workloads(b *testing.B) {
	for _, p := range workload.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			reads, total := 0, 0
			for i := 0; i < b.N; i++ {
				gen, err := workload.New(p, 1<<20, 2000, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				for {
					req, ok := gen.Next()
					if !ok {
						break
					}
					total++
					if req.Op == workload.OpRead {
						reads++
					}
				}
			}
			b.ReportMetric(float64(reads)/float64(total), "sim-read-frac")
		})
	}
}

// runCell runs one (scheme, workload) simulation at bench scale.
func runCell(b *testing.B, scheme string, prof workload.Profile, requests int) ssd.RunResult {
	b.Helper()
	f, err := experiments.BuildFTL(scheme, benchGeometry())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ssd.New(f, ssd.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(prof, f.LogicalPages(), requests, 42)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig8aIOPS reproduces Figure 8(a) at bench scale: one sub-benchmark
// per FTL x workload, reporting simulated IOPS.
func BenchmarkFig8aIOPS(b *testing.B) {
	for _, scheme := range experiments.Schemes() {
		for _, prof := range workload.All() {
			scheme, prof := scheme, prof
			b.Run(scheme+"/"+prof.Name, func(b *testing.B) {
				var last ssd.RunResult
				for i := 0; i < b.N; i++ {
					last = runCell(b, scheme, prof, 6000)
				}
				b.ReportMetric(last.Metrics.IOPS, "sim-IOPS")
			})
		}
	}
}

// BenchmarkFig8bErasures reproduces Figure 8(b) at bench scale, reporting
// block erasures per 1000 host writes.
func BenchmarkFig8bErasures(b *testing.B) {
	for _, scheme := range experiments.Schemes() {
		scheme := scheme
		b.Run(scheme+"/NTRX", func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runCell(b, scheme, workload.NTRX(), 6000)
			}
			st := last.Stats
			if st.HostWrites > 0 {
				b.ReportMetric(1000*float64(st.Erases)/float64(st.HostWrites), "sim-erases/kwrite")
			}
		})
	}
}

// BenchmarkFig8cBandwidthCDF reproduces Figure 8(c) at bench scale,
// reporting the p99 (peak) write bandwidth under Varmail.
func BenchmarkFig8cBandwidthCDF(b *testing.B) {
	for _, scheme := range experiments.Schemes() {
		scheme := scheme
		b.Run(scheme+"/Varmail", func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runCell(b, scheme, workload.Varmail(), 6000)
			}
			b.ReportMetric(last.Metrics.PeakWriteBandwidthMBs, "sim-peakMB/s")
		})
	}
}

// BenchmarkRecovery measures the Section 3.3 reboot procedure: pages read
// and virtual duration of one recovery pass after a power cut.
func BenchmarkRecovery(b *testing.B) {
	var rep ftl.RecoveryReport
	for i := 0; i < b.N; i++ {
		f, err := experiments.BuildFTL("flexFTL", benchGeometry())
		if err != nil {
			b.Fatal(err)
		}
		flex := f.(*ftl.Kernel)
		g := f.Device().Geometry()
		now := sim.Time(0)
		lpn := ftl.LPN(0)
		for j := 0; j < g.Chips()*g.LSBPagesPerBlock(); j++ {
			now, err = f.Write(lpn, now, 0.95)
			if err != nil {
				b.Fatal(err)
			}
			lpn++
		}
		for flex.Snapshot().Chips[0].Streams[0].SlowProgress == 0 {
			now, err = f.Write(lpn, now, 0.01)
			if err != nil {
				b.Fatal(err)
			}
			lpn++
		}
		f.Device().InjectPowerLoss(nand.BlockAddr{Chip: 0, Block: flex.Snapshot().Chips[0].Streams[0].ActiveSlow()})
		rep, err = flex.Recover(now)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PagesRead), "sim-pages-read")
	b.ReportMetric(rep.Duration().Millis(), "sim-reboot-ms")
}

// BenchmarkAblationQuota varies the LSB quota of Section 3.2: a tiny quota
// degrades flexFTL to FPS-like alternation, the paper's 5% serves bursts,
// and an effectively unbounded quota risks free-pool exhaustion cliffs.
func BenchmarkAblationQuota(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		fraction float64
	}{
		{"tiny-0.1pct", 0.001},
		{"paper-5pct", 0.05},
		{"huge-100pct", 1.0},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runFlexVariant(b, func(p *ftl.FlexParams) { p.QuotaFraction = cfg.fraction })
			}
			b.ReportMetric(last.Metrics.IOPS, "sim-IOPS")
			b.ReportMetric(last.Metrics.PeakWriteBandwidthMBs, "sim-peakMB/s")
		})
	}
}

// BenchmarkAblationBGCCopyType compares background-GC relocation through MSB
// pages (the paper's design, replenishing q) against LSB pages.
func BenchmarkAblationBGCCopyType(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		viaLSB bool
	}{
		{"MSB-paper", false},
		{"LSB-ablation", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runFlexVariant(b, func(p *ftl.FlexParams) { p.BGCCopyLSB = cfg.viaLSB })
			}
			b.ReportMetric(last.Metrics.IOPS, "sim-IOPS")
			st := last.Stats
			b.ReportMetric(float64(st.HostWritesLSB)/float64(st.HostWrites), "sim-host-LSB-frac")
		})
	}
}

// BenchmarkAblationPredictiveBGC compares the fixed reclaim cushion against
// the Section 6 future-write-predictor extension on bursty traffic.
func BenchmarkAblationPredictiveBGC(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		predictive bool
	}{
		{"fixed-cushion", false},
		{"predictive", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runFlexVariant(b, func(p *ftl.FlexParams) { p.PredictiveBGC = cfg.predictive })
			}
			b.ReportMetric(last.Metrics.IOPS, "sim-IOPS")
			b.ReportMetric(float64(last.Stats.ForegroundGCs), "sim-fg-GCs")
		})
	}
}

// BenchmarkAblationBackupScheme quantifies the per-block parity advantage:
// backup page programs per host write for each FTL's scheme.
func BenchmarkAblationBackupScheme(b *testing.B) {
	for _, scheme := range []string{"parityFTL", "rtfFTL", "flexFTL"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			var last ssd.RunResult
			for i := 0; i < b.N; i++ {
				last = runCell(b, scheme, workload.NTRX(), 6000)
			}
			st := last.Stats
			b.ReportMetric(float64(st.BackupWrites)/float64(st.HostWrites), "sim-backup/write")
		})
	}
}

func runFlexVariant(b *testing.B, mutate func(*ftl.FlexParams)) ssd.RunResult {
	b.Helper()
	dev, err := nand.NewDevice(nand.Config{
		Geometry: benchGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := ftl.DefaultFlexParams()
	mutate(&params)
	f, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), params)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ssd.New(f, ssd.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Prefill(); err != nil {
		b.Fatal(err)
	}
	gen, err := workload.New(workload.Varmail(), f.LogicalPages(), 6000, 42)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Run(gen)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSSDRun is the end-to-end hot-path benchmark: one full
// prefill+workload simulation per iteration for each FTL, reporting the
// simulator's wall-clock throughput in host pages per second next to
// allocations per run. This is the number the single-run optimizations
// (victim index, scratch reuse) move.
func BenchmarkSSDRun(b *testing.B) {
	for _, scheme := range experiments.Schemes() {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			b.ReportAllocs()
			var pages int64
			for i := 0; i < b.N; i++ {
				res := runCell(b, scheme, workload.NTRX(), 6000)
				pages += res.Stats.HostWrites + res.Stats.HostReads
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(pages)/s, "pages/s")
			}
		})
	}
}

// shardBenchGeometry widens the channel count to 4 (the evaluation
// geometry's) so the epoch-sharded engine has enough independent shards to
// spread over the worker pool; benchGeometry's 2 channels would cap the
// speedup at 2x regardless of workers.
func shardBenchGeometry() nand.Geometry {
	return nand.Geometry{
		Channels: 4, ChipsPerChannel: 2, BlocksPerChip: 64,
		WordLinesPerBlock: 16, PageSizeBytes: 4096, SpareBytes: 64,
	}
}

// BenchmarkSSDRunSharded measures the epoch-sharded engine against the
// serial delegation at workers=1, one full prefill+workload simulation per
// iteration on flexFTL. Run with -cpu 1,4 to sweep the host parallelism:
// the -N suffix Go appends to each row IS the GOMAXPROCS of that run
// (sub-benchmark names are fixed at discovery, so GOMAXPROCS cannot go in
// the name itself). The w1 row is the no-regression guard against
// BenchmarkSSDRun; the wN rows only beat it when GOMAXPROCS and the host core
// count allow real parallelism.
func BenchmarkSSDRunSharded(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("flexFTL/w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var pages int64
			for i := 0; i < b.N; i++ {
				f, err := experiments.BuildFTL("flexFTL", shardBenchGeometry())
				if err != nil {
					b.Fatal(err)
				}
				sys, err := ssd.New(f, ssd.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Prefill(); err != nil {
					b.Fatal(err)
				}
				gen, err := workload.New(workload.NTRX(), f.LogicalPages(), 6000, 42)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.RunSharded(gen, workers)
				if err != nil {
					b.Fatal(err)
				}
				pages += res.Stats.HostWrites + res.Stats.HostReads
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(pages)/s, "pages/s")
			}
		})
	}
}

// BenchmarkPickVictim isolates the victim-selection cost on a standalone pool
// over synthetic valid counts: the indexed picker should stay flat as the
// full list grows from 64 to 4096 blocks while the reference linear scan
// grows proportionally. Both modes run the identical per-iteration churn —
// invalidate one page of the youngest block, pick, revalidate. Churning the
// youngest (maximum-stamp) block keeps the bucket re-insert O(1) in both
// modes, so the measured difference is purely the pick.
func BenchmarkPickVictim(b *testing.B) {
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"indexed", false}, {"reference", true}} {
		for _, n := range []int{64, 256, 1024, 4096} {
			mode, n := mode, n
			// The size spells out "blocks" so the -N GOMAXPROCS suffix Go
			// appends cannot be read as part of a trailing bare number.
			b.Run(fmt.Sprintf("%s/%dblocks", mode.name, n), func(b *testing.B) {
				const ppb = 16
				valid := make([]int32, n+8)
				p := ftl.NewFreePool(0, n+8)
				p.Reference = mode.ref
				p.Bind(ppb, valid)
				blks := make([]int, 0, n)
				for i := 0; i < n; i++ {
					blk, ok := p.PopFree()
					if !ok {
						b.Fatal("pool exhausted")
					}
					valid[blk] = int32(1 + (i*7)%(ppb-1))
					p.PushFull(blk)
					blks = append(blks, blk)
				}
				hot := blks[n-1]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					valid[hot]--
					p.NoteValidChange(hot, int(valid[hot]))
					if _, ok := p.PickVictim(); !ok {
						b.Fatal("no victim")
					}
					valid[hot]++
					p.NoteValidChange(hot, int(valid[hot]))
				}
			})
		}
	}
}

// BenchmarkMapperUpdate and BenchmarkParityAccumulate keep an eye on the two
// hottest data-structure paths of the simulator itself.
func BenchmarkMapperUpdate(b *testing.B) {
	g := benchGeometry()
	spares := make(pageSpares, g.TotalPages())
	m := ftl.NewMapper(nand.NewLayout(g), int64(g.TotalPages()/2), spares)
	logical := m.LogicalPages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := ftl.LPN(i % int(logical))
		ppn := nand.PPN(i % g.TotalPages())
		if old, ok := m.LPNAt(ppn); ok {
			m.Invalidate(old)
		}
		binary.LittleEndian.PutUint32(spares[ppn][:], uint32(lpn))
		m.Update(lpn, ppn)
	}
}

// pageSpares is the spare area of every page of a device that is never
// built: what BenchmarkMapperUpdate "programs" before it maps a page.
type pageSpares [][ftl.SpareSize]byte

func (s pageSpares) PeekSpare(ppn nand.PPN) ([ftl.SpareSize]byte, bool) { return s[ppn], true }

func BenchmarkParityAccumulate(b *testing.B) {
	buf := make([]byte, ftl.TokenSize)
	acc := parity.New(ftl.TokenSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		if err := acc.Add(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLCExtension measures the n-phase flexFTL on a 3-bit device: the
// level-0 burst drain rate vs the finest level's, plus backup overhead —
// the Section 1 applicability claim in numbers.
func BenchmarkTLCExtension(b *testing.B) {
	b.Run("burst-drain", func(b *testing.B) {
		var perPage float64
		for i := 0; i < b.N; i++ {
			dev, err := nand.NewDevice(nand.Config{Geometry: nand.TLCGeometry(), Timing: nand.TLCTiming(), Rules: core.RPS})
			if err != nil {
				b.Fatal(err)
			}
			f, err := nflex.New(dev, ftl.DefaultConfig(), nflex.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			const burst = 256
			var last sim.Time
			for j := 0; j < burst; j++ {
				done, err := f.Write(ftl.LPN(j), 0, 1.0)
				if err != nil {
					b.Fatal(err)
				}
				if done > last {
					last = done
				}
			}
			perPage = float64(last) / burst
		}
		b.ReportMetric(perPage, "sim-us/page")
	})
	b.Run("backup-overhead", func(b *testing.B) {
		var overhead float64
		for i := 0; i < b.N; i++ {
			dev, err := nand.NewDevice(nand.Config{Geometry: nand.TLCGeometry(), Timing: nand.TLCTiming(), Rules: core.RPS})
			if err != nil {
				b.Fatal(err)
			}
			f, err := nflex.New(dev, ftl.DefaultConfig(), nflex.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(uint64(i))
			logical := f.LogicalPages()
			now := sim.Time(0)
			for j := int64(0); j < logical; j++ {
				now, err = f.Write(ftl.LPN(src.Int63n(logical)), now, src.Float64())
				if err != nil {
					b.Fatal(err)
				}
			}
			st := f.Stats()
			overhead = float64(st.BackupWrites) / float64(st.HostWrites)
		}
		b.ReportMetric(overhead, "sim-backup/write")
	})
}

// BenchmarkSimulateBlock pins the allocation-lean refactor: the
// allocate-per-call path against the reusable-arena path, same RNG stream
// and results, on the Figure 1 MLC cell; and the arena path on the TLC cell
// of the Section 1 extension, which the same simulator runs.
func BenchmarkSimulateBlock(b *testing.B) {
	const wl = 32
	for _, c := range []struct {
		name   string
		params vth.Params
		order  []core.Page
		arena  *vth.Arena
	}{
		{"legacy", vth.DefaultParams(), core.RPSFullOrder(wl), nil},
		{"arena", vth.DefaultParams(), core.RPSFullOrder(wl), vth.NewArena()},
		{"tlc-arena", vth.EvenParams(3), core.RelaxedFullOrder(core.TLC(wl)), vth.NewArena()},
	} {
		c.params.CellsPerWordLine = 512
		model, err := vth.NewModel(c.params)
		if err != nil {
			b.Fatal(err)
		}
		scheme := core.Scheme{Levels: c.params.Cell.Bits, WordLines: wl}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.arena == nil {
					_, err = model.SimulateBlock(scheme, c.order, vth.WorstCase, rng.New(uint64(i)))
				} else {
					_, err = model.SimulateBlockArena(scheme, c.order, vth.WorstCase, rng.New(uint64(i)), c.arena)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeviceRead measures the device page read into a caller-owned
// buffer, the only read the device offers.
func BenchmarkDeviceRead(b *testing.B) {
	dev, err := nand.NewDevice(nand.Config{
		Geometry: benchGeometry(), Timing: nand.DefaultTiming(), Rules: core.RPS,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := nand.PageAddr{BlockAddr: nand.BlockAddr{Chip: 0, Block: 0}, Page: core.Page{WL: 0, Type: core.LSB}}
	payload := make([]byte, 4096)
	if _, err := dev.Program(a, payload, []byte{1, 2}, 0); err != nil {
		b.Fatal(err)
	}
	var buf nand.PageBuf
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		done, err := dev.ReadInto(a, &buf, now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// BenchmarkRunFig4 measures the Figure 4 driver end to end, serial vs the
// full worker pool. The two produce byte-identical results; the ratio is
// the experiment engine's speedup on this machine.
func BenchmarkRunFig4(b *testing.B) {
	cfg := experiments.VthConfig{Blocks: 8, WordLines: 16, Cells: 256, Seed: 5}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig4(cfg, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunFig8 measures the evaluation matrix end to end, serial vs the
// full worker pool.
func BenchmarkRunFig8(b *testing.B) {
	setup := experiments.Setup{Geometry: benchGeometry(), Requests: 2000, Seed: 7}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig8(setup, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
