package main

import (
	"time"

	"flexftl/internal/buffer"
	"flexftl/internal/core"
	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
	"flexftl/internal/metrics"
	"flexftl/internal/nand"
	"flexftl/internal/nandn"
	"flexftl/internal/nlevel"
	"flexftl/internal/rel"
	"flexftl/internal/rng"
	"flexftl/internal/sim"
	"flexftl/internal/ssd"
)

// Micro-timers call each layer's public functions standalone, so a per-op
// cost exists for the layers the Host decorator cannot see inside (device,
// buffer, metrics collector, BER model). They are estimates: est_busy_s is
// count x standalone cost, not a measurement of the run.

// sink keeps the compiler from discarding timed calls.
var sink float64

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func zipfDrawNs(space int64, theta float64) float64 {
	z := rng.NewZipf(rng.New(1), int(space), theta)
	return perOp(500_000, func(int) { sink += float64(z.Next()) })
}

// deviceMicro is the standalone cost of the device operations: a device is
// built, filled in its scheme's relaxed full order (2PO on MLC), read back
// and erased, then filled again — the first fill allocates every page
// payload, the second reuses them.
type deviceMicro struct {
	newDeviceMs, firstTouchNs, reuseNs, readNs, eraseNs float64
}

// estBusyS prices a run's device ops at the standalone reuse costs.
func (m deviceMicro) estBusyS(c devCounts) float64 {
	return (float64(c.progFast+c.progSlow)*m.reuseNs + float64(c.reads)*m.readNs + float64(c.erases)*m.eraseNs) / 1e9
}

// microDevice is the device surface the micro pattern drives: blocks are flat
// indices, pages positions in the scheme's relaxed full order.
type microDevice struct {
	blocks, pagesPerBlock int
	program, read         func(blk, page int) error
	erase                 func(blk int) error
}

// measureDevice times build, then fill / read back / erase / refill.
func measureDevice(build func() (microDevice, error)) (deviceMicro, error) {
	var m deviceMicro
	t0 := time.Now()
	d, err := build()
	if err != nil {
		return m, err
	}
	m.newDeviceMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	pages := d.blocks * d.pagesPerBlock
	fill := func() float64 {
		return perOp(pages, func(i int) { note(d.program(i/d.pagesPerBlock, i%d.pagesPerBlock)) })
	}
	m.firstTouchNs = fill()
	m.readNs = perOp(pages, func(i int) { note(d.read(i/d.pagesPerBlock, i%d.pagesPerBlock)) })
	m.eraseNs = perOp(d.blocks, func(i int) { note(d.erase(i)) })
	m.reuseNs = fill()
	return m, err
}

var (
	microData  [ftl.TokenSize]byte
	microSpare [8]byte
)

func mlcMicroDevice() (microDevice, error) {
	g := experiments.EvalGeometry()
	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		return microDevice{}, err
	}
	order := core.RPSFullOrder(g.WordLinesPerBlock)
	block := func(blk int) nand.BlockAddr {
		return nand.BlockAddr{Chip: blk / g.BlocksPerChip, Block: blk % g.BlocksPerChip}
	}
	var buf nand.PageBuf
	return microDevice{
		blocks: g.TotalBlocks(), pagesPerBlock: g.PagesPerBlock(),
		program: func(blk, page int) error {
			_, err := dev.Program(nand.PageAddr{BlockAddr: block(blk), Page: order[page]}, microData[:], microSpare[:], 0)
			return err
		},
		read: func(blk, page int) error {
			_, err := dev.ReadInto(nand.PageAddr{BlockAddr: block(blk), Page: order[page]}, &buf, 0)
			return err
		},
		erase: func(blk int) error { _, err := dev.Erase(block(blk), 0); return err },
	}, nil
}

func tlcMicroDevice() (microDevice, error) {
	g := nandn.TLCGeometry()
	dev, err := nandn.NewDevice(g, nandn.TLCTiming())
	if err != nil {
		return microDevice{}, err
	}
	order := nlevel.RelaxedFullOrder(g.Scheme())
	addr := func(blk, page int) nandn.PageAddr {
		return nandn.PageAddr{Chip: blk / g.BlocksPerChip, Block: blk % g.BlocksPerChip, Page: order[page]}
	}
	var buf nandn.PageBuf
	return microDevice{
		blocks: g.TotalBlocks(), pagesPerBlock: g.PagesPerBlock(),
		program: func(blk, page int) error {
			_, err := dev.Program(addr(blk, page), microData[:], microSpare[:], 0)
			return err
		},
		read: func(blk, page int) error { _, err := dev.ReadInto(addr(blk, page), &buf, 0); return err },
		erase: func(blk int) error {
			_, err := dev.Erase(blk/g.BlocksPerChip, blk%g.BlocksPerChip, 0)
			return err
		},
	}, nil
}

// bufferAdmitReleaseNs times one admit + one release on a full buffer of the
// runner's capacity, releasing in completion order rather than FIFO order as
// the runner's pending heap does: each round releases a pseudo-random
// occupant and admits a replacement.
func bufferAdmitReleaseNs() (float64, error) {
	capacity := bufferPages
	b := buffer.New(capacity)
	held := make([]*buffer.Entry, capacity)
	var err error
	for i := range held {
		if held[i], err = b.TryAdmit(int64(i), 0); err != nil {
			return 0, err
		}
	}
	src := rng.New(1)
	var firstErr error
	ns := perOp(500_000, func(i int) {
		j := src.Intn(capacity)
		if e := b.Release(held[j]); e != nil && firstErr == nil {
			firstErr = e
		}
		e, err := b.TryAdmit(int64(i), sim.Time(i))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		held[j] = e
	})
	return ns, firstErr
}

// collectorMicro times the metrics collector on the workload's own request
// count: recording (a read/write mix) and the end-of-run finalise + latency
// report the runner calls once.
func collectorMicro(requests int64) (recordNs, finaliseMs float64) {
	cfg := ssd.DefaultConfig()
	col := metrics.NewCollector(experiments.EvalGeometry().PageSizeBytes, cfg.BandwidthWindow)
	src := rng.New(1)
	recordNs = perOp(int(requests), func(i int) {
		at := sim.Time(i) * 150 * sim.Microsecond
		lat := sim.Time(src.Intn(2000)) * sim.Microsecond
		if i%2 == 0 {
			col.RecordRead(1, at, at+lat)
		} else {
			col.RecordWrite(1, at, at+lat/4, at+lat)
		}
	})
	t0 := time.Now()
	res := col.Finalize()
	lat := col.Latency()
	finaliseMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	sink += res.IOPS + lat.Read.P99
	return recordNs, finaliseMs
}

// relMicro times the BER model and the ECC read-outcome ladder at the aged
// workload's operating point.
func relMicro() (berNs, outcomeNs float64) {
	rc := rel.DefaultConfig(relSeed)
	pageBytes := experiments.EvalGeometry().PageSizeBytes
	berNs = perOp(200_000, func(i int) { sink += rc.Model.BER(agedCycles, sim.Time(i), uint64(i)) })
	ber := rc.Model.BER(agedCycles, 0, 0)
	outcomeNs = perOp(200_000, func(i int) {
		sink += float64(rc.ReadOutcome(ber, pageBytes, rc.Sample(0, 0, i, 0)).Retries)
	})
	return berNs, outcomeNs
}
