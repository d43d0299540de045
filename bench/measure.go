package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"flexftl/internal/ftl"
	"flexftl/internal/metrics"
	"flexftl/internal/nandn"
	"flexftl/internal/ssd"
	"flexftl/internal/stats"
	"flexftl/internal/workload"
)

// devCounts is the device-op view shared by the MLC and n-level devices:
// fast programs are LSB / level 0, slow programs MSB / every finer level.
type devCounts struct {
	reads, progFast, progSlow, erases int64
}

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{a.reads - b.reads, a.progFast - b.progFast, a.progSlow - b.progSlow, a.erases - b.erases}
}

func (a *devCounts) add(b devCounts) {
	a.reads += b.reads
	a.progFast += b.progFast
	a.progSlow += b.progSlow
	a.erases += b.erases
}

func deviceCounts(h ftl.Host) devCounts {
	switch f := h.(type) {
	case ftl.FTL:
		c := f.Device().Counts()
		return devCounts{c.Reads, c.ProgramsLSB, c.ProgramsMSB, c.Erases}
	case interface{ Device() *nandn.Device }:
		d := f.Device()
		c := devCounts{reads: d.Reads(), erases: d.Erases()}
		for lvl, n := range d.Programs() {
			if lvl == 0 {
				c.progFast += n
			} else {
				c.progSlow += n
			}
		}
		return c
	}
	return devCounts{}
}

// input is what the generator of one part emits for a seed, counted from the
// request stream alone (never from the simulator's own counters).
type input struct {
	requests, pages int64
	hash            uint64
}

func scanInput(gen workload.Generator) input {
	var in input
	h := fnv.New64a()
	var b [25]byte
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		in.requests++
		in.pages += int64(req.Pages)
		binary.LittleEndian.PutUint64(b[0:], uint64(req.Arrival))
		binary.LittleEndian.PutUint64(b[8:], uint64(req.Page))
		binary.LittleEndian.PutUint64(b[16:], uint64(req.Pages))
		b[24] = byte(req.Op)
		h.Write(b[:])
	}
	in.hash = h.Sum64()
	return in
}

// outcome is everything one repetition (setup + steady run of every part)
// produced.
type outcome struct {
	setupWall   time.Duration
	setupAllocs uint64
	setup       setupTimes

	steadyWall    time.Duration
	steadyMallocs uint64
	steadyBytes   uint64

	pages, requests int64 // attempted, from the input stream
	failed          int64
	digest          string
	inputDigest     string

	// Simulated results, combined over the parts: rates and ratios over the
	// summed numerators and denominators, percentiles as the worst part.
	simRequests int64
	simActiveS  float64
	readP99     float64
	writeAckP99 float64
	stats       ftl.Stats // summed
	dev         devCounts // steady-phase device ops
	shard       ssd.ShardReport
	rel         ssd.ReliabilityReport
}

func (o *outcome) simIOPS() float64 { return float64(o.simRequests) / o.simActiveS }

// digestOf hashes the parts of a run result that must not change when the
// simulator only gets faster or simpler: integer counters, latency
// percentiles, the final mapping state, free blocks and device op counts.
// Values only, in a fixed order, so adding a counter elsewhere leaves it be.
func digestOf(res ssd.RunResult, h ftl.Host) string {
	var sb strings.Builder
	m, st := res.Metrics, res.Stats
	for _, v := range []int64{
		m.Requests, m.Reads, m.Writes, m.Trims, m.PagesRead, m.PagesWrit, int64(m.ActiveTime), int64(m.Makespan),
		st.HostReads, st.HostWrites, st.HostTrims, st.HostWritesLSB, st.HostWritesMSB,
		st.GCCopies, st.GCCopiesLSB, st.GCCopiesMSB, st.BackupWrites, st.PadWrites, st.Erases,
		st.RetiredBlocks, st.ForegroundGCs, st.BackgroundGCs, st.HostWritesHot, st.HostWritesCold,
		st.UncorrectableReads, st.ECCRebuilds, st.ScrubReads, st.RefreshCopies, st.RefreshedBlocks, st.GCReadLosses,
	} {
		fmt.Fprintf(&sb, "%d,", v)
	}
	l := res.Latency
	for _, p := range []metrics.Percentiles{l.Read, l.WriteAck, l.WriteFlush, l.Trim} {
		fmt.Fprintf(&sb, "%d,", p.Count)
		for _, f := range []float64{p.Mean, p.P50, p.P90, p.P95, p.P99, p.Max} {
			fmt.Fprintf(&sb, "%x,", math.Float64bits(f))
		}
	}
	if mh, ok := h.(interface{ MappingHash() uint64 }); ok {
		fmt.Fprintf(&sb, "map=%x,", mh.MappingHash())
	}
	if fb, ok := h.(interface{ TotalFreeBlocks() int }); ok {
		fmt.Fprintf(&sb, "free=%d,", fb.TotalFreeBlocks())
	}
	dc := deviceCounts(h)
	fmt.Fprintf(&sb, "dev=%d,%d,%d,%d", dc.reads, dc.progFast, dc.progSlow, dc.erases)
	sum := fnv.New64a()
	sum.Write([]byte(sb.String()))
	return strconv.FormatUint(sum.Sum64(), 16)
}

func memStats() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// runner repeats one workload on one seed.
type runner struct {
	sp   spec
	seed uint64
	// inputs caches the scan of each part's request stream: it depends only
	// on the part and the seed, so the first repetition pays for it.
	inputs []input
}

// rep performs one repetition: for each part a fresh build, pre-wear and
// prefill (the setup), then the steady run. With tr set the repetition is
// traced; with serial set a sharded workload runs through Run instead (the
// reference its digest must equal).
func (r *runner) rep(tr *tracer, serial bool) (outcome, error) {
	sp, seed := r.sp, r.seed
	var o outcome
	var digests, inputs []string
	sharded := sp.workers > 1 && !serial
	hostTr := tr
	if sharded {
		// RunSharded needs the bare *ftl.Kernel (it silently delegates to Run
		// otherwise), so a sharded traced repetition wraps the generator only.
		hostTr = nil
	}
	for i, p := range sp.parts {
		runtime.GC()
		a0, _ := memStats()
		t0 := time.Now()
		s, st, err := p.setup(hostTr)
		o.setupWall += time.Since(t0)
		a1, _ := memStats()
		o.setupAllocs += a1 - a0
		o.setup.add(st)
		if err != nil {
			return o, fmt.Errorf("%s setup: %w", p.scheme, err)
		}

		if i == len(r.inputs) {
			gen, err := p.generator(s.host, seed)
			if err != nil {
				return o, err
			}
			r.inputs = append(r.inputs, scanInput(gen))
		}
		in := r.inputs[i]
		o.requests += in.requests
		o.pages += in.pages
		inputs = append(inputs, strconv.FormatUint(in.hash, 16))
		gen, err := p.generator(s.host, seed)
		if err != nil {
			return o, err
		}
		if tr != nil {
			gen = &tracedGen{Generator: gen, t: tr}
		}
		before := deviceCounts(s.host)

		runtime.GC()
		m0, b0 := memStats()
		if tr != nil {
			tr.start()
		}
		t1 := time.Now()
		var res ssd.RunResult
		if sharded {
			res, err = s.sys.RunSharded(gen, sp.workers)
		} else {
			res, err = s.sys.Run(gen)
		}
		wall := time.Since(t1)
		if tr != nil {
			tr.stop(t1, t1.Add(wall))
		}
		m1, b1 := memStats()
		o.steadyWall += wall
		o.steadyMallocs += m1 - m0
		o.steadyBytes += b1 - b0
		if err != nil {
			// A run that errors counts every op of the part as failed.
			o.failed += in.pages
			return o, fmt.Errorf("%s run: %w", p.scheme, err)
		}

		o.failed += res.Stats.UncorrectableReads
		digests = append(digests, digestOf(res, s.host))
		o.simRequests += res.Metrics.Requests
		o.simActiveS += res.Metrics.ActiveTime.Seconds()
		o.readP99 = math.Max(o.readP99, res.Latency.Read.P99)
		o.writeAckP99 = math.Max(o.writeAckP99, res.Latency.WriteAck.P99)
		addStats(&o.stats, res.Stats)
		dc := deviceCounts(s.host).sub(before)
		o.dev.add(dc)
		o.shard = s.sys.ShardReport()
		if res.Reliability != nil {
			o.rel = *res.Reliability
		}
	}
	o.digest = strings.Join(digests, "-")
	o.inputDigest = strings.Join(inputs, "-")
	return o, nil
}

func addStats(a *ftl.Stats, b ftl.Stats) {
	a.HostReads += b.HostReads
	a.HostWrites += b.HostWrites
	a.HostTrims += b.HostTrims
	a.HostWritesLSB += b.HostWritesLSB
	a.HostWritesMSB += b.HostWritesMSB
	a.GCCopies += b.GCCopies
	a.BackupWrites += b.BackupWrites
	a.PadWrites += b.PadWrites
	a.Erases += b.Erases
	a.ForegroundGCs += b.ForegroundGCs
	a.BackgroundGCs += b.BackgroundGCs
}

// peakRSSMiB reads the process's resident-set high-water mark (Linux only;
// 0 elsewhere).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median interpolates between the two middle samples of an even count.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
