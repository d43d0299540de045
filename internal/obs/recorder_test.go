package obs

import (
	"errors"
	"strings"
	"testing"

	"flexftl/internal/alloctest"
	"flexftl/internal/sim"
)

// collectSink retains events in memory for assertions.
type collectSink struct {
	events []Event
	closed bool
}

func (c *collectSink) WriteEvent(e *Event) error {
	c.events = append(c.events, *e)
	return nil
}
func (c *collectSink) Close() error { c.closed = true; return nil }

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Span(KindRead, 0, 0, 10, 1, 2)
	r.Instant(KindPolicy, 0, 5, 1, 0)
	r.Sample(100)
	if r.Events() != nil || r.Emitted() != 0 || r.Registry() != nil || r.Sampler() != nil {
		t.Error("nil recorder must read empty")
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(Options{BufferEvents: 4})
	for i := 0; i < 6; i++ {
		r.Instant(KindPolicy, 0, sim.Time(i), int64(i), 0)
	}
	if r.Emitted() != 6 {
		t.Errorf("emitted = %d", r.Emitted())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(ev))
	}
	// The ring keeps the most recent events in emission order: 2,3,4,5.
	for i, e := range ev {
		if e.A != int64(i+2) {
			t.Errorf("event %d has A=%d, want %d", i, e.A, i+2)
		}
	}
}

func TestRecorderSinkFlush(t *testing.T) {
	sink := &collectSink{}
	r := NewRecorder(Options{Sink: sink, BufferEvents: 4})
	for i := 0; i < 10; i++ {
		r.Span(KindProgramLSB, 1, sim.Time(i*100), sim.Time(i*100+50), int64(i), 7)
	}
	// Two full buffers flushed, two staged.
	if len(sink.events) != 8 {
		t.Errorf("flushed %d events before Close", len(sink.events))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Error("Close did not close the sink")
	}
	if len(sink.events) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(sink.events))
	}
	for i, e := range sink.events {
		if e.A != int64(i) || e.Kind != KindProgramLSB || e.Dur != 50 {
			t.Errorf("event %d out of order or corrupted: %+v", i, e)
		}
	}
}

func TestRecorderNegativeDurationClamped(t *testing.T) {
	r := NewRecorder(Options{})
	r.Span(KindErase, 0, 100, 40, 0, 0)
	if ev := r.Events(); len(ev) != 1 || ev[0].Dur != 0 {
		t.Errorf("negative span not clamped: %+v", ev)
	}
}

type failSink struct{ err error }

func (f *failSink) WriteEvent(*Event) error { return f.err }
func (f *failSink) Close() error            { return nil }

func TestRecorderSurfacesSinkError(t *testing.T) {
	boom := errors.New("disk gone")
	r := NewRecorder(Options{Sink: &failSink{err: boom}, BufferEvents: 1})
	r.Instant(KindPolicy, 0, 0, 0, 0)
	r.Instant(KindPolicy, 0, 1, 0, 0) // forces a flush into the failing sink
	err := r.Close()
	if !errors.Is(err, boom) {
		t.Errorf("Close() = %v, want wrapped %v", err, boom)
	}
}

func TestRecorderSampleTicksSampler(t *testing.T) {
	samp := NewSampler(10)
	samp.Register("x", func() float64 { return 1 })
	r := NewRecorder(Options{Sampler: samp})
	r.Sample(0)
	r.Sample(25)
	if rows := samp.Rows(); len(rows) != 2 {
		t.Errorf("sampler rows = %d, want 2", len(rows))
	}
	if r.Sampler() != samp {
		t.Error("Sampler() accessor broken")
	}
}

func TestRecorderRegistryDefault(t *testing.T) {
	r := NewRecorder(Options{})
	if r.Registry() == nil {
		t.Fatal("recorder must allocate a registry by default")
	}
	r.Registry().Counter("c").Inc()
	if r.Registry().Counter("c").Value() != 1 {
		t.Error("registry not retained")
	}
}

// TestDisabledPathAllocates0 is the hard guard behind the "instrumentation
// is free when off" claim: the full disabled call chain — recorder emits,
// registry lookups, instrument updates, sampler ticks — must not allocate.
func TestDisabledPathAllocates0(t *testing.T) {
	var r *Recorder
	allocs := alloctest.Count(1000, func() {
		r.Span(KindProgramLSB, 3, 100, 900, 42, 7)
		r.Instant(KindPolicy, 0, 100, 1, 64)
		r.Registry().Counter("x").Inc()
		r.Registry().Gauge("u").Set(0.5)
		r.Sample(100)
	})
	if allocs != 0 {
		t.Errorf("1 000 ops on the disabled path allocate %d times, want 0", allocs)
	}
}

// TestEnabledPathAllocates0 is the enabled-side twin: with the ring
// recorder live and instruments prefetched (as every SetRecorder
// implementation does), spans, instants and counter adds must still not
// allocate on the steady-state path.
func TestEnabledPathAllocates0(t *testing.T) {
	r := NewRecorder(Options{})
	c := r.Registry().Counter("busy")
	now := sim.Time(0)
	allocs := alloctest.Count(1000, func() {
		r.Span(KindProgramLSB, 3, now, now+900, 42, 7)
		r.Instant(KindPolicy, 0, now, 1, 64)
		c.Add(900)
		now += 1000
	})
	if allocs != 0 {
		t.Errorf("1 000 ops on the enabled path allocate %d times, want 0", allocs)
	}
}

// BenchmarkRecorderDisabled measures the nil-recorder hot path (satellite
// requirement: 0 allocs/op).
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span(KindProgramLSB, 3, sim.Time(i), sim.Time(i+900), 42, 7)
		r.Registry().Counter("busy").Add(900)
		r.Sample(sim.Time(i))
	}
}

// BenchmarkRecorderEnabled measures the in-memory (ring) emission path.
func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder(Options{})
	c := r.Registry().Counter("busy")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span(KindProgramLSB, 3, sim.Time(i), sim.Time(i+900), 42, 7)
		c.Add(900)
	}
}

func TestKindMetadata(t *testing.T) {
	for k := KindNone; k < kindCount; k++ {
		if k.Name() == "" || k.Name() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		a, b := k.ArgNames()
		if a == "" || b == "" {
			t.Errorf("kind %s missing arg names", k.Name())
		}
		if d := k.TrackDomain(); d.String() == "unknown" {
			t.Errorf("kind %s has unknown domain", k.Name())
		}
	}
	if kindCount.Name() != "unknown" {
		t.Error("out-of-range kind must read unknown")
	}
	if !strings.Contains(DomainChannel.String(), "channel") {
		t.Errorf("domain string: %q", DomainChannel.String())
	}
}
