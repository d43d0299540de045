package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"flexftl/internal/sim"
)

func collect(t *testing.T, gen Generator, max int) []Request {
	t.Helper()
	var out []Request
	for i := 0; i < max; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		out = append(out, req)
	}
	return out
}

func TestProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) != 5 {
		t.Errorf("All() returned %d profiles, want the paper's 5", len(All()))
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	base := OLTP()
	mutations := []func(*Profile){
		func(p *Profile) { p.ReadFraction = -0.1 },
		func(p *Profile) { p.ReadFraction = 1.1 },
		func(p *Profile) { p.BurstLen = 0 },
		func(p *Profile) { p.IntraGap = -1 },
		func(p *Profile) { p.PagesMean = 0 },
		func(p *Profile) { p.PagesCap = 0 },
		func(p *Profile) { p.ZipfTheta = 0 },
		func(p *Profile) { p.ZipfTheta = 1 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(OLTP(), 0, 10, 1); err == nil {
		t.Error("zero space accepted")
	}
	if _, err := New(OLTP(), 100, 0, 1); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := New(OLTP(), 1<<31, 10, 1); err == nil {
		t.Error("space past int32 page numbers accepted")
	}
	if _, err := New(OLTP(), 1<<31-1, 10, 1); err != nil {
		t.Errorf("largest int32 space rejected: %v", err)
	}
	bad := OLTP()
	bad.BurstLen = 0
	if _, err := New(bad, 100, 10, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestGeneratorBasicInvariants(t *testing.T) {
	const space, total = 10000, 5000
	for _, p := range All() {
		gen, err := New(p, space, total, 7)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Name() != p.Name {
			t.Errorf("name = %q", gen.Name())
		}
		reqs := collect(t, gen, total+10)
		if len(reqs) != total {
			t.Fatalf("%s emitted %d requests, want %d", p.Name, len(reqs), total)
		}
		var prev sim.Time
		for i, r := range reqs {
			if r.Arrival < prev {
				t.Fatalf("%s: arrivals not monotone at %d", p.Name, i)
			}
			prev = r.Arrival
			if r.Page < 0 || r.Page+int64(r.Pages) > space {
				t.Fatalf("%s: request outside space: %+v", p.Name, r)
			}
			if r.Pages < 1 || r.Pages > p.PagesCap {
				t.Fatalf("%s: size %d outside [1,%d]", p.Name, r.Pages, p.PagesCap)
			}
		}
	}
}

// TestTable1Characteristics verifies the generators empirically match
// Table 1: read:write mix and the intensity ordering (OLTP/NTRX nearly
// idle-free; Webserver mostly idle; Varmail/Fileserver in between).
func TestTable1Characteristics(t *testing.T) {
	const space, total = 100000, 20000
	type row struct {
		readFrac float64
		idleFrac float64
	}
	rows := map[string]row{}
	for _, p := range All() {
		gen, err := New(p, space, total, 11)
		if err != nil {
			t.Fatal(err)
		}
		reads := 0
		var idle, span sim.Time
		var prev sim.Time
		const idleGap = 5 * sim.Millisecond
		reqs := collect(t, gen, total)
		for i, r := range reqs {
			if r.Op == OpRead {
				reads++
			}
			if i > 0 && r.Arrival-prev > idleGap {
				idle += r.Arrival - prev
			}
			prev = r.Arrival
		}
		span = reqs[len(reqs)-1].Arrival
		rows[p.Name] = row{
			readFrac: float64(reads) / float64(total),
			idleFrac: float64(idle) / float64(span),
		}
	}
	want := map[string]float64{
		"OLTP": 0.7, "NTRX": 0.3, "Webserver": 0.8, "Varmail": 0.5, "Fileserver": 1.0 / 3.0,
	}
	for name, wantRF := range want {
		got := rows[name].readFrac
		if math.Abs(got-wantRF) > 0.05 {
			t.Errorf("%s read fraction = %.3f, want ~%.2f", name, got, wantRF)
		}
	}
	// Intensity ordering via idle fraction.
	if rows["OLTP"].idleFrac > 0.3 || rows["NTRX"].idleFrac > 0.3 {
		t.Errorf("OLTP/NTRX should be nearly idle-free: %.2f / %.2f",
			rows["OLTP"].idleFrac, rows["NTRX"].idleFrac)
	}
	if rows["Webserver"].idleFrac < 0.5 {
		t.Errorf("Webserver should be idle-dominated: %.2f", rows["Webserver"].idleFrac)
	}
	for _, name := range []string{"Varmail", "Fileserver"} {
		f := rows[name].idleFrac
		if f < rows["OLTP"].idleFrac+0.2 || f > rows["Webserver"].idleFrac+0.05 {
			t.Errorf("%s idle fraction %.2f not between OLTP %.2f and Webserver %.2f",
				name, f, rows["OLTP"].idleFrac, rows["Webserver"].idleFrac)
		}
	}
}

func TestReadsTargetWrittenPages(t *testing.T) {
	gen, err := New(Varmail(), 1000, 2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	written := map[int64]bool{}
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if req.Op == OpWrite {
			written[req.Page] = true
		} else if !written[req.Page] {
			t.Fatalf("read of never-written page %d", req.Page)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(Fileserver(), 5000, 1000, 99)
	b, _ := New(Fileserver(), 5000, 1000, 99)
	for {
		ra, okA := a.Next()
		rb, okB := b.Next()
		if okA != okB {
			t.Fatal("lengths differ")
		}
		if !okA {
			break
		}
		if ra != rb {
			t.Fatalf("same seed diverged: %+v vs %+v", ra, rb)
		}
	}
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	gen, _ := New(OLTP(), 5000, 500, 3)
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, gen)
	if err != nil || n != 500 {
		t.Fatalf("WriteBinary = %d,%v", n, err)
	}
	replay, err := NewBinaryReplay(&buf, "oltp-trace")
	if err != nil {
		t.Fatal(err)
	}
	if replay.Name() != "oltp-trace" {
		t.Error("name wrong")
	}
	ref, _ := New(OLTP(), 5000, 500, 3)
	count := 0
	for {
		want, okW := ref.Next()
		got, okG := replay.Next()
		if okW != okG {
			t.Fatalf("lengths differ at %d", count)
		}
		if !okW {
			break
		}
		if want != got {
			t.Fatalf("record %d: %+v != %+v", count, got, want)
		}
		count++
	}
}

func TestBinaryReplayRejectsGarbage(t *testing.T) {
	if _, err := NewBinaryReplay(bytes.NewReader([]byte("nope")), "x"); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewBinaryReplay(bytes.NewReader(nil), "x"); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestCSVTraceRoundTrip(t *testing.T) {
	gen, _ := New(Webserver(), 5000, 300, 5)
	var buf bytes.Buffer
	n, err := WriteCSV(&buf, gen)
	if err != nil || n != 300 {
		t.Fatalf("WriteCSV = %d,%v", n, err)
	}
	replay, err := NewCSVReplay(&buf, "web-trace")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(Webserver(), 5000, 300, 5)
	for {
		want, okW := ref.Next()
		got, okG := replay.Next()
		if okW != okG {
			t.Fatal("lengths differ")
		}
		if !okW {
			break
		}
		if want != got {
			t.Fatalf("%+v != %+v", got, want)
		}
	}
}

func TestCSVReplayRejectsBadHeader(t *testing.T) {
	if _, err := NewCSVReplay(bytes.NewReader([]byte("a,b\n")), "x"); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewCSVReplay(bytes.NewReader(nil), "x"); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestLimit(t *testing.T) {
	gen, _ := New(OLTP(), 1000, 100, 1)
	lim := Limit(gen, 10)
	if lim.Name() != "OLTP" {
		t.Error("name lost")
	}
	reqs := collect(t, lim, 100)
	if len(reqs) != 10 {
		t.Errorf("Limit(10) emitted %d", len(reqs))
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Error("Op strings wrong")
	}
}

func TestIntensityString(t *testing.T) {
	if IntensityModerate.String() != "Moderate" ||
		IntensityHigh.String() != "High" ||
		IntensityVeryHigh.String() != "Very high" {
		t.Error("intensity strings wrong")
	}
}

func TestZipfDeterminism(t *testing.T) {
	for _, theta := range []float64{0.6, 0.99, 1.2} {
		a, err := NewZipf(theta, 5000, 1000, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewZipf(theta, 5000, 1000, 99)
		var reqsA, reqsB []Request
		for {
			ra, okA := a.Next()
			rb, okB := b.Next()
			if okA != okB {
				t.Fatal("lengths differ")
			}
			if !okA {
				break
			}
			reqsA, reqsB = append(reqsA, ra), append(reqsB, rb)
		}
		if !reflect.DeepEqual(reqsA, reqsB) {
			t.Fatalf("theta=%v: same seed diverged", theta)
		}
		if len(reqsA) != 1000 {
			t.Fatalf("theta=%v: emitted %d requests, want 1000", theta, len(reqsA))
		}
	}
}

// TestZipfSkew pins the property the placement studies rely on: a higher
// theta concentrates more writes on fewer pages.
func TestZipfSkew(t *testing.T) {
	headShare := func(theta float64) float64 {
		gen, err := NewZipf(theta, 10000, 20000, 7)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int64]int{}
		writes := 0
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if req.Op == OpWrite {
				counts[req.Page]++
				writes++
			}
		}
		head := 0
		for _, c := range counts {
			if c >= 10 {
				head += c
			}
		}
		return float64(head) / float64(writes)
	}
	low, high := headShare(0.6), headShare(1.2)
	if high <= low {
		t.Fatalf("theta=1.2 head share %.3f not above theta=0.6 share %.3f", high, low)
	}
}
