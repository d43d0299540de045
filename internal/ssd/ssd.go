// Package ssd is the storage-system runner: it drives a workload generator
// through the host write buffer into an FTL on the shared virtual clock,
// modelling buffered write-back (host acknowledgement at buffer admission,
// backpressure when the buffer fills), read service, idle-window background
// GC dispatch, and active-time accounting for the IOPS metric.
package ssd

import (
	"errors"
	"fmt"

	"flexftl/internal/buffer"
	"flexftl/internal/ftl"
	"flexftl/internal/metrics"
	"flexftl/internal/obs"
	"flexftl/internal/rel"
	"flexftl/internal/sim"
	"flexftl/internal/workload"
)

// Config parameterizes the runner.
type Config struct {
	// BufferPages is the host write-buffer capacity in pages. The paper's
	// policy thresholds (uhigh=80%, ulow=10%) act on this buffer.
	BufferPages int
	// BandwidthWindow is the write-bandwidth sampling window.
	BandwidthWindow sim.Time
	// IdleThreshold is the minimum arrival gap treated as an idle window
	// (and offered to the FTL's background GC).
	IdleThreshold sim.Time
	// PrefillFraction of the logical space is written sequentially before
	// measurement so runs start from a realistic steady state; counters
	// reset afterwards.
	PrefillFraction float64
}

// DefaultConfig returns the runner defaults.
func DefaultConfig() Config {
	return Config{
		BufferPages:     128,
		BandwidthWindow: 10 * sim.Millisecond,
		IdleThreshold:   1 * sim.Millisecond,
		PrefillFraction: 0.85,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.BufferPages <= 0:
		return fmt.Errorf("ssd: buffer must hold at least one page, got %d", c.BufferPages)
	case c.BandwidthWindow <= 0:
		return fmt.Errorf("ssd: bandwidth window must be positive")
	case c.IdleThreshold < 0:
		return fmt.Errorf("ssd: negative idle threshold")
	case c.PrefillFraction < 0 || c.PrefillFraction > 1:
		return fmt.Errorf("ssd: prefill fraction %v outside [0,1]", c.PrefillFraction)
	}
	return nil
}

// RunResult bundles the measurements of one run.
type RunResult struct {
	FTLName  string
	Workload string
	Metrics  metrics.Result
	Stats    ftl.Stats
	// Latency is the per-op-class percentile report (virtual-time µs),
	// computed from the always-on collector — identical with or without a
	// recorder attached.
	Latency metrics.LatencyReport
	// WAF is the media-programs-per-host-write amplification factor
	// (Stats.WriteAmplification, lifted here for run reports).
	WAF float64
	// WearSpread is the device's end-of-run wear imbalance (max/mean erase
	// count; 1.0 = perfectly level, 0 when the host doesn't expose it).
	WearSpread float64
	// Reliability summarizes the BER model's read outcomes and the FTL's
	// responses. nil unless the device carries a reliability model, so
	// baseline results (and their serialized goldens) are unchanged.
	Reliability *ReliabilityReport
}

// ReliabilityReport is the end-of-run reliability summary: how the device's
// ECC read ladder classified reads, and what the FTL did about the losses.
type ReliabilityReport struct {
	// Device-side read-outcome counters (every read of a programmed page).
	Reads         int64 // reads classified by the BER model
	Corrected     int64 // reads needing correction within the fast-decode bit budget
	RetriedReads  int64 // reads that entered the read-retry ladder
	RetryRounds   int64 // total retry rounds across those reads
	Uncorrectable int64 // reads that failed the full ladder (raw device count)

	// FTL-side response counters (zero when ftl.Config.Reliability is nil —
	// the detect-only configuration).
	UncorrectableReads int64 // host/scrub reads lost for good (no rebuild possible)
	ECCRebuilds        int64 // lost pages reconstructed from per-block parity
	ScrubReads         int64 // idle-window patrol reads
	RefreshCopies      int64 // page programs from refresh/scrub relocation
	RefreshedBlocks    int64 // whole blocks refreshed past the BER line
	GCReadLosses       int64 // GC relocations that carried a pinned placeholder
	RetiredBlocks      int64 // blocks retired (erase budget or post-erase BER)
}

// System binds an FTL to the runner state. The runner needs only the
// device-agnostic Host surface, so it drives the MLC kernels and the n-level
// nflex scheme alike.
type System struct {
	F   ftl.Host
	cfg Config

	buf *buffer.Buffer
	// pending holds the completion times of the buffered pages whose
	// programs are in flight. Which buffer entry a completion frees is never
	// read, only how many do (admitted).
	pending sim.TimeHeap
	// admitted holds the buffer entries of the pages in pending, one each,
	// in no order: a completion releases any of them.
	admitted []*buffer.Entry
	prefillT sim.Time
	obs      *obs.Recorder

	// Planner effectiveness of the last RunSharded call: epochs that
	// executed on the shard runner and the page ops they carried (requests
	// the planner could not shard ran serial and are not counted).
	shardRep ShardReport

	// The buffer-full blame counter (nil without a recorder; prefetched in
	// SetRecorder so the request loop never touches the registry maps).
	ctrBufFull *obs.Counter
}

// New builds a System. The FTL must be freshly constructed (the runner owns
// its life cycle).
func New(f ftl.Host, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{
		F:   f,
		cfg: cfg,
		buf: buffer.New(cfg.BufferPages),
	}, nil
}

// Prefill sequentially writes the configured fraction of the logical space
// and resets the FTL counters, so measurement starts from steady state. It
// returns the virtual time consumed.
func (s *System) Prefill() (sim.Time, error) {
	n := int64(float64(s.F.LogicalPages()) * s.cfg.PrefillFraction)
	now := sim.Time(0)
	for lpn := int64(0); lpn < n; lpn++ {
		done, err := s.F.Write(ftl.LPN(lpn), now, 0.5)
		if err != nil {
			return now, fmt.Errorf("ssd: prefill LPN %d: %w", lpn, err)
		}
		now = done
	}
	if r, ok := s.F.(interface{ ResetCounters() }); ok {
		r.ResetCounters()
	}
	s.prefillT = now
	return now, nil
}

// SetRecorder threads an observability recorder through the whole stack:
// the FTL and device start emitting trace events, the buffer keeps a live
// utilization gauge, and — when the recorder carries a sampler — the
// runner registers the internal-state probes of the paper's Section 3
// dynamics (write-buffer utilization u, free blocks, and for quota-driven
// FTLs the LSB quota q and slow-block-queue depth) and ticks it at every
// request. Call it after Prefill so traces cover the measured run only;
// a nil recorder is a no-op. Tracing never changes results: the recorder
// only observes the virtual timeline.
func (s *System) SetRecorder(r *obs.Recorder) {
	s.obs = r
	if r == nil {
		return
	}
	if fr, ok := s.F.(interface{ SetRecorder(r *obs.Recorder) }); ok {
		fr.SetRecorder(r)
	}
	reg := r.Registry()
	s.buf.Instrument(reg.Gauge("buffer.u"))
	s.ctrBufFull = reg.Counter(obs.BlameCounterName(obs.CauseBufferFull))
	samp := r.Sampler()
	if samp == nil {
		return
	}
	samp.Register("u", s.buf.Utilization)
	if fb, ok := s.F.(interface{ TotalFreeBlocks() int }); ok {
		samp.Register("free_blocks", func() float64 { return float64(fb.TotalFreeBlocks()) })
	}
	// Derived accounting streams, sampled per virtual-time window: write
	// amplification, cumulative GC copy volume, cumulative erases, and the
	// device's wear imbalance.
	samp.Register("waf", func() float64 { return s.F.Stats().WriteAmplification() })
	samp.Register("gc_copy_pages", func() float64 { return float64(s.F.Stats().GCCopies) })
	samp.Register("erase_count", func() float64 { return float64(s.F.Stats().Erases) })
	if ws, ok := s.F.(interface{ WearSpread() float64 }); ok {
		samp.Register("wear_spread", ws.WearSpread)
	}
	if q, ok := s.F.(interface{ Quota() int64 }); ok {
		samp.Register("q", func() float64 { return float64(q.Quota()) })
	}
	sq, okQ := s.F.(interface{ SlowQueueLen(chip int) int })
	ch, okC := s.F.(interface{ Chips() int })
	if okQ && okC {
		chips := ch.Chips()
		samp.Register("sbq_depth", func() float64 {
			total := 0
			for c := 0; c < chips; c++ {
				total += sq.SlowQueueLen(c)
			}
			return float64(total)
		})
	}
}

// releaseUpTo frees buffer slots whose programs completed by t.
func (s *System) releaseUpTo(t sim.Time) error {
	for s.pending.Len() > 0 && s.pending[0] <= t {
		if _, err := s.releaseEarliest(); err != nil {
			return err
		}
	}
	return nil
}

// track puts an admitted page's program in flight until done.
func (s *System) track(done sim.Time, e *buffer.Entry) {
	s.pending.Push(done)
	s.admitted = append(s.admitted, e)
}

// releaseEarliest frees the buffer slot of the earliest-completing program
// in flight and returns that program's completion time.
func (s *System) releaseEarliest() (sim.Time, error) {
	done := s.pending.Pop()
	n := len(s.admitted) - 1
	e := s.admitted[n]
	s.admitted = s.admitted[:n]
	return done, s.buf.Release(e)
}

// runState is the per-run loop state shared by Run and RunSharded: the
// metrics collector, the virtual-time cursors of the request loop, and the
// cached run parameters.
type runState struct {
	col         *metrics.Collector
	base        sim.Time
	logical     int64
	busyUntil   sim.Time
	activeStart sim.Time
}

// lpn returns page p of a request starting at page, wrapped into the logical
// space; only an extent that runs past its end pays the division.
func (rs *runState) lpn(page int64, p int) ftl.LPN {
	lpn := page + int64(p)
	if uint64(lpn) >= uint64(rs.logical) {
		lpn %= rs.logical
	}
	return ftl.LPN(lpn)
}

// newRunState opens one run's loop state.
func (s *System) newRunState() *runState {
	if s.admitted == nil {
		// Every program in flight holds a buffer slot, so neither the heap
		// nor the entry stack outgrows the buffer: size them once.
		s.pending = make(sim.TimeHeap, 0, s.cfg.BufferPages)
		s.admitted = make([]*buffer.Entry, 0, s.cfg.BufferPages)
	}
	return &runState{
		col:         metrics.NewCollector(s.F.PageSize(), s.cfg.BandwidthWindow),
		base:        s.prefillT,
		logical:     s.F.LogicalPages(),
		busyUntil:   s.prefillT,
		activeStart: sim.Time(-1),
	}
}

// prologue is the per-request bookkeeping that precedes op service: active
// interval tracking, the state sampler tick, buffer releases up to the
// arrival, and the idle-window dispatch.
func (s *System) prologue(rs *runState, arrival sim.Time) error {
	if rs.activeStart < 0 {
		rs.activeStart = arrival
	}
	s.obs.Sample(arrival)
	if err := s.releaseUpTo(arrival); err != nil {
		return err
	}
	// Idle window: the device has drained and the next request is far
	// away — run background GC, then close the active interval.
	if arrival > rs.busyUntil+s.cfg.IdleThreshold {
		s.F.Idle(rs.busyUntil, arrival)
		rs.col.AddActive(rs.busyUntil - rs.activeStart)
		rs.activeStart = arrival
	}
	return nil
}

// stepOp services one request serially at its arrival time (the op switch of
// the classic run loop; the epoch planner also uses it as the exact fallback
// for anything it cannot shard).
func (s *System) stepOp(rs *runState, req workload.Request, arrival sim.Time) error {
	switch req.Op {
	case workload.OpRead:
		completion := arrival
		for p := 0; p < req.Pages; p++ {
			lpn := rs.lpn(req.Page, p)
			done, err := s.F.Read(lpn, arrival)
			if err != nil {
				if errors.Is(err, ftl.ErrUnmapped) {
					continue // never-written page: served from the zero map
				}
				if errors.Is(err, rel.ErrUncorrectable) {
					// Detected data loss: the read completed (full ECC retry
					// ladder, ending in a media-error response) — count its
					// latency and carry on. The loss itself is reported in
					// Stats.UncorrectableReads and the reliability report.
					if done > completion {
						completion = done
					}
					continue
				}
				return fmt.Errorf("ssd: read LPN %d: %w", lpn, err)
			}
			if done > completion {
				completion = done
			}
		}
		rs.col.RecordRead(req.Pages, arrival, completion)
		if completion > rs.busyUntil {
			rs.busyUntil = completion
		}
	case workload.OpWrite:
		admission := arrival
		flushed := arrival
		for p := 0; p < req.Pages; p++ {
			lpn := rs.lpn(req.Page, p)
			// Backpressure: wait for the earliest in-flight program.
			for s.buf.Free() == 0 {
				if s.pending.Len() == 0 {
					return fmt.Errorf("ssd: buffer full with nothing in flight")
				}
				done, err := s.releaseEarliest()
				if err != nil {
					return err
				}
				if done > admission {
					admission = done
				}
			}
			entry, err := s.buf.TryAdmit(int64(lpn), admission)
			if err != nil {
				return err
			}
			util := s.buf.Utilization()
			done, err := s.F.Write(lpn, admission, util)
			if err != nil {
				return fmt.Errorf("ssd: write LPN %d: %w", lpn, err)
			}
			s.track(done, entry)
			if done > flushed {
				flushed = done
			}
		}
		rs.col.RecordWrite(req.Pages, arrival, admission, flushed)
		if admission > arrival {
			// The host stalled on a full write buffer before the last
			// page was admitted — buffer-full blame.
			s.ctrBufFull.Add(int64(admission - arrival))
		}
		if flushed > rs.busyUntil {
			rs.busyUntil = flushed
		}
	case workload.OpTrim:
		// Trims of one request are independent mapping operations: all
		// issue at arrival and the request completes when the slowest
		// does (max-completion, like reads) — not chained head to tail.
		completion := arrival
		for p := 0; p < req.Pages; p++ {
			lpn := rs.lpn(req.Page, p)
			done, err := s.F.Trim(lpn, arrival)
			if err != nil {
				return fmt.Errorf("ssd: trim LPN %d: %w", lpn, err)
			}
			if done > completion {
				completion = done
			}
		}
		rs.col.RecordTrim(req.Pages, arrival, completion)
		if completion > rs.busyUntil {
			rs.busyUntil = completion
		}
	default:
		return fmt.Errorf("ssd: unknown op %v", req.Op)
	}
	return nil
}

// finishRun closes the active interval, drains the buffer, and builds the
// result.
func (s *System) finishRun(rs *runState, gen workload.Generator) (RunResult, error) {
	if rs.activeStart >= 0 {
		rs.col.AddActive(rs.busyUntil - rs.activeStart)
	}
	if err := s.releaseUpTo(sim.MaxTime); err != nil {
		return RunResult{}, err
	}
	s.obs.Sample(rs.busyUntil)
	st := s.F.Stats()
	res := RunResult{
		FTLName:  s.F.Name(),
		Workload: gen.Name(),
		Metrics:  rs.col.Finalize(),
		Stats:    st,
		Latency:  rs.col.Latency(),
		WAF:      st.WriteAmplification(),
	}
	if ws, ok := s.F.(interface{ WearSpread() float64 }); ok {
		res.WearSpread = ws.WearSpread()
	}
	if fd, ok := s.F.(ftl.FTL); ok {
		if dev := fd.Device(); dev.Reliability() != nil {
			rc := dev.RelCounts()
			res.Reliability = &ReliabilityReport{
				Reads:              rc.Reads,
				Corrected:          rc.Corrected,
				RetriedReads:       rc.RetriedReads,
				RetryRounds:        rc.RetryRounds,
				Uncorrectable:      rc.Uncorrectable,
				UncorrectableReads: st.UncorrectableReads,
				ECCRebuilds:        st.ECCRebuilds,
				ScrubReads:         st.ScrubReads,
				RefreshCopies:      st.RefreshCopies,
				RefreshedBlocks:    st.RefreshedBlocks,
				GCReadLosses:       st.GCReadLosses,
				RetiredBlocks:      st.RetiredBlocks,
			}
		}
	}
	return res, nil
}

// Run drives the generator to completion and returns the measurements.
// Arrivals are offset by the prefill time automatically.
func (s *System) Run(gen workload.Generator) (RunResult, error) {
	rs := s.newRunState()
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		arrival := rs.base + req.Arrival
		if err := s.prologue(rs, arrival); err != nil {
			return RunResult{}, err
		}
		if err := s.stepOp(rs, req, arrival); err != nil {
			return RunResult{}, err
		}
	}
	return s.finishRun(rs, gen)
}
