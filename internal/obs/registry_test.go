package obs

import "testing"

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if r.Counter("writes") != c {
		t.Error("counter not interned by name")
	}
	g := r.Gauge("u")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
	if r.Gauge("u") != g {
		t.Error("gauge not interned by name")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	if c != nil || g != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(5)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	cs, gs := r.Names()
	if cs != nil || gs != nil {
		t.Error("nil registry names not empty")
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Gauge("u").Set(0.5)
	snap := r.Snapshot()
	if snap.Counters["a.count"] != 1 || snap.Counters["b.count"] != 3 {
		t.Errorf("counters: %v", snap.Counters)
	}
	if snap.Gauges["u"] != 0.5 {
		t.Errorf("gauges: %v", snap.Gauges)
	}
	cs, gs := r.Names()
	if len(cs) != 2 || cs[0] != "a.count" || cs[1] != "b.count" {
		t.Errorf("counter names not sorted: %v", cs)
	}
	if len(gs) != 1 || gs[0] != "u" {
		t.Errorf("gauge names: %v", gs)
	}
}
