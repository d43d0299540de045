package obs

import (
	"fmt"

	"flexftl/internal/sim"
)

// Recorder is the handle instrumented components emit through. A nil
// *Recorder is the disabled state: every method is a nil-safe no-op that
// performs no allocation, so callers thread the pointer unconditionally.
//
// Events are staged in a fixed ring buffer. With a sink attached the buffer
// is flushed when full (and on Close); without a sink the ring wraps,
// retaining the most recent events for in-memory inspection via Events().
//
// The Recorder, like the simulator, is single-threaded over virtual time:
// Emit/Sample/Close must stay on the simulation thread. Only the registry's
// instruments are safe to update from several goroutines.
type Recorder struct {
	sink    Sink
	reg     *Registry
	samp    *Sampler
	buf     []Event
	n       int   // valid events in buf
	next    int   // ring write cursor (sink == nil only)
	wrapped bool  // ring has overwritten old events
	emitted int64 // total events emitted
	err     error // first sink error, surfaced by Close
}

// Options configures a Recorder.
type Options struct {
	// Sink receives every event (streaming). nil keeps events in memory.
	Sink Sink
	// BufferEvents is the staging ring capacity (default 4096).
	BufferEvents int
	// Registry receives counters and gauges; nil allocates a fresh one.
	Registry *Registry
	// Sampler, when set, is ticked by Recorder.Sample.
	Sampler *Sampler
}

// NewRecorder builds an enabled recorder.
func NewRecorder(o Options) *Recorder {
	if o.BufferEvents <= 0 {
		o.BufferEvents = 4096
	}
	if o.Registry == nil {
		o.Registry = NewRegistry()
	}
	return &Recorder{
		sink: o.Sink,
		reg:  o.Registry,
		samp: o.Sampler,
		buf:  make([]Event, o.BufferEvents),
	}
}

// Enabled reports whether the recorder is live. Callers may use it to skip
// argument computation; the emit methods are nil-safe regardless.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the metrics registry (nil when disabled).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Sampler returns the time-series sampler (nil when disabled or not
// configured).
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.samp
}

// Emitted returns the total number of events emitted.
func (r *Recorder) Emitted() int64 {
	if r == nil {
		return 0
	}
	return r.emitted
}

// Span emits a complete-span event covering [start, end).
func (r *Recorder) Span(k Kind, track int32, start, end sim.Time, a, b int64) {
	if r == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.emit(Event{Kind: k, Phase: PhaseSpan, Track: track, Start: start, Dur: dur, A: a, B: b})
}

// Instant emits a point event at t.
func (r *Recorder) Instant(k Kind, track int32, t sim.Time, a, b int64) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: k, Phase: PhaseInstant, Track: track, Start: t, A: a, B: b})
}

func (r *Recorder) emit(e Event) {
	r.emitted++
	if r.sink == nil {
		r.buf[r.next] = e
		r.next++
		if r.next == len(r.buf) {
			r.next, r.wrapped = 0, true
		}
		if r.n < len(r.buf) {
			r.n++
		}
		return
	}
	if r.n == len(r.buf) {
		r.flush()
	}
	r.buf[r.n] = e
	r.n++
}

func (r *Recorder) flush() {
	for i := 0; i < r.n; i++ {
		if err := r.sink.WriteEvent(&r.buf[i]); err != nil && r.err == nil {
			r.err = err
		}
	}
	r.n = 0
}

// Events returns the buffered events in emission order. With a sink
// attached it returns only the not-yet-flushed tail; without one it returns
// the retained ring contents (the most recent BufferEvents emissions).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.sink != nil || !r.wrapped {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	out := make([]Event, 0, r.n)
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Sample ticks the attached sampler at virtual time now (no-op without a
// sampler).
func (r *Recorder) Sample(now sim.Time) {
	if r == nil || r.samp == nil {
		return
	}
	r.samp.Tick(now)
}

// Close flushes staged events and closes the sink, returning the first
// error encountered on the way.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if r.sink != nil {
		r.flush()
		if err := r.sink.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	if r.err != nil {
		return fmt.Errorf("obs: %w", r.err)
	}
	return nil
}
