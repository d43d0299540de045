package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. It is atomic because the
// epoch-sharded run engine (ssd.RunSharded) adds to one counter from several
// goroutines.
type Counter struct{ v atomic.Int64 }

// Add increments the counter (nil-safe).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one (nil-safe).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 (utilization, queue depth, ...).
type Gauge struct{ v atomic.Uint64 }

// Set stores the value (nil-safe).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Registry is a get-or-create namespace of counters and gauges.
// Creation is guarded by a mutex (cold path); the instruments themselves
// are lock-free. Instrumented components fetch their handles once at
// instrument time and hold them, so hot paths never touch the maps.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegistrySnapshot is a JSON-marshalable point-in-time view of a registry.
type RegistrySnapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
}

// Snapshot captures every instrument. Safe to call concurrently with
// recording (values may be mid-update but never torn).
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	return snap
}

// Names returns the sorted instrument names of each class (tests, render).
func (r *Registry) Names() (counters, gauges []string) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	return counters, gauges
}
