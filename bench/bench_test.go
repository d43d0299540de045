package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"flexftl/internal/experiments"
	"flexftl/internal/ftl"
)

const (
	smokeScale = 50
	smokeSeed  = 42
)

// smoke runs every workload once at -scale 50 (one untraced repetition, the
// traced one and the micro-timers) and shares the results between tests.
var smoke = sync.OnceValues(func() (result, error) {
	out, err := os.MkdirTemp("", "bench-smoke")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(out)
	all := result{Seed: smokeSeed, Scale: smokeScale, Workloads: map[string]workloadResult{}}
	for _, sp := range specs(smokeScale) {
		wr, err := runWorkload(childOpts{
			workload: sp.name, seed: smokeSeed, scale: smokeScale,
			reps: 1, untraced: true, traced: true, outDir: out,
		})
		if err != nil {
			return all, err
		}
		all.Workloads[sp.name] = wr
	}
	return all, nil
})

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	all, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, wr := range all.Workloads {
		if !wr.correct() {
			t.Errorf("%s: failed checks: %v", name, wr.Checks)
		}
		if _, ok := pins.digest(smokeScale, smokeSeed, name); !ok {
			t.Errorf("%s: no pinned digest for scale %d seed %d", name, smokeScale, smokeSeed)
		}
		if wr.Attempted < 1 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", name, wr.Attempted, wr.Failed)
		}
		// The simulated metrics BENCHMARK.json declares per layer come from the
		// traced repetition and must equal the untraced ones.
		for _, d := range endToEnd {
			if got, want := wr.PerLayer[d.Name].Value, wr.EndToEnd[d.Name].Value; d.PerLayerOnly && got != want {
				t.Errorf("%s: %s is %v traced, %v untraced", name, d.Name, got, want)
			}
		}
	}
	sharded, serial := all.Workloads["ntrx_sharded"], all.Workloads["ntrx_gc"]
	if sharded.SimDigest != serial.SimDigest || sharded.InputDigest != serial.InputDigest {
		t.Errorf("ntrx_sharded digest %s/%s differs from ntrx_gc %s/%s",
			sharded.SimDigest, sharded.InputDigest, serial.SimDigest, serial.InputDigest)
	}
	if v := sharded.PerLayer["shard.sharded_share"].Value; v <= 0 {
		t.Errorf("shard.sharded_share = %v, want > 0", v)
	}
	if v := all.Workloads["oltp_aged_rel"].PerLayer["rel.retried_share"].Value; v <= 0 {
		t.Errorf("rel.retried_share = %v, want > 0", v)
	}
}

// The traced repetition's spans partition the steady wall: generator +
// host calls + the runner's own time.
func TestTracedSharesAddUp(t *testing.T) {
	all, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	for name, wr := range all.Workloads {
		pl := wr.PerLayer
		sum := pl["workload.share"].Value + pl["ftl.share"].Value + pl["ssd.self_share"].Value
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: workload + ftl + ssd shares = %v, want 1", name, sum)
		}
	}
}

func TestDigestIsStableAcrossRuns(t *testing.T) {
	sp, err := findSpec("fileserver_idle", smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	run := &runner{sp: sp, seed: smokeSeed}
	var first string
	for i := 0; i < 5; i++ {
		oc, err := run.rep(nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = oc.digest
		} else if oc.digest != first {
			t.Fatalf("run %d: digest %s, first run %s", i+1, oc.digest, first)
		}
	}
}

// The decorators must look to the runner exactly like the host they wrap:
// every optional interface it type-asserts is forwarded.
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	for _, scheme := range []string{"flexFTL", "nflexTLC"} {
		h, err := ftl.Build(scheme, ftl.BuildEnv{
			Geometry: experiments.EvalGeometry(), Config: ftl.DefaultConfig(), Flex: ftl.DefaultFlexParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(3, 0, 0.5); err != nil {
			t.Fatal(err)
		}
		w := newTracer().wrapHost(h)

		if _, inner := h.(ftl.FTL); inner {
			f, ok := w.(ftl.FTL)
			if !ok {
				t.Fatalf("%s: decorator hides ftl.FTL", scheme)
			}
			if f.Device() != h.(ftl.FTL).Device() {
				t.Errorf("%s: Device() not forwarded", scheme)
			}
		} else if _, ok := w.(ftl.FTL); ok {
			t.Errorf("%s: decorator invents an MLC device", scheme)
		}
		if got, want := w.(interface{ MappingHash() uint64 }).MappingHash(), h.(interface{ MappingHash() uint64 }).MappingHash(); got != want {
			t.Errorf("%s: MappingHash %x, want %x", scheme, got, want)
		}
		if got, want := w.(interface{ TotalFreeBlocks() int }).TotalFreeBlocks(), h.(interface{ TotalFreeBlocks() int }).TotalFreeBlocks(); got != want {
			t.Errorf("%s: TotalFreeBlocks %d, want %d", scheme, got, want)
		}
		if got, want := w.(interface{ WearSpread() float64 }).WearSpread(), h.(interface{ WearSpread() float64 }).WearSpread(); got != want {
			t.Errorf("%s: WearSpread %v, want %v", scheme, got, want)
		}
		w.(interface{ ResetCounters() }).ResetCounters()
		if _, resets := h.(interface{ ResetCounters() }); resets && h.Stats().HostWrites != 0 {
			t.Errorf("%s: ResetCounters not forwarded", scheme)
		}
	}
}

func TestCompare(t *testing.T) {
	all, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "a.json")
	if err := writeJSON(base, all); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(base, base, io.Discard); code != 0 {
		t.Errorf("comparing a result with itself exits %d, want 0", code)
	}

	// A copy whose every throughput sample is 20% lower must be a regression.
	var slow result
	if err := readJSON(base, &slow); err != nil {
		t.Fatal(err)
	}
	for name, wr := range slow.Workloads {
		v := wr.EndToEnd["host_pages_per_s"]
		v.Value *= 0.8
		for i := range v.Reps {
			v.Reps[i] *= 0.8
		}
		wr.EndToEnd["host_pages_per_s"] = v
		slow.Workloads[name] = wr
	}
	slower := filepath.Join(dir, "b.json")
	if err := writeJSON(slower, slow); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(base, slower, io.Discard); code != 1 {
		t.Errorf("comparing against a 20%% slower copy exits %d, want 1", code)
	}
}

// BENCHMARK.json at the repository root must declare exactly what the code
// emits: the metric tables here are the source of truth.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	sps := specs(1)
	if len(bm.Workloads) != len(sps) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bm.Workloads), len(sps))
	}
	for i, w := range bm.Workloads {
		if w.Name != sps[i].name || w.Why != sps[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, sps[i].name, sps[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	all, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metricDef{}
	for _, d := range endToEnd {
		want[d.Name] = d
	}
	seen := map[string]bool{}
	for _, m := range bm.EndToEnd {
		d, ok := want[m.Name]
		if !ok || d.PerLayerOnly {
			t.Errorf("end_to_end %s: not a never-zero end-to-end metric of the code", m.Name)
			continue
		}
		seen[m.Name] = true
		if m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("end_to_end %s: %+v does not match %+v", m.Name, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s (%s): name or unit outside the allowed alphabet", m.Name, m.Unit)
		}
		for wl, wr := range all.Workloads {
			if v, ok := wr.EndToEnd[m.Name]; !ok || v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s missing or 0", wl, m.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if !d.PerLayerOnly && !seen[d.Name] {
			t.Errorf("end_to_end %s: missing from BENCHMARK.json", d.Name)
		}
	}

	layer := map[string]string{}
	for _, d := range perLayerUnits {
		layer[d.Name] = d.Unit
	}
	for _, d := range endToEnd {
		if d.PerLayerOnly {
			layer[d.Name] = d.Unit
		}
	}
	if len(bm.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d per_layer metrics, the code %d", len(bm.PerLayer), len(layer))
	}
	for _, m := range bm.PerLayer {
		if unit, ok := layer[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s): the code has unit %q", m.Name, m.Unit, unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s (%s): name or unit outside the allowed alphabet", m.Name, m.Unit)
		}
		for wl, wr := range all.Workloads {
			if _, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", wl, m.Name)
			}
		}
	}
}
