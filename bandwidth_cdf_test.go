// Figure 8(c)'s bandwidth CDF for every golden cell that has one. The
// equivalence and GC goldens drop the CDF (one sample per window) and pin
// only its mean and peak; this file pins its shape as the exhibit reads it:
// the window count, the quantiles at q = 0.01, 0.02, ..., 1 and the 60
// points the exhibit plots, all in one testdata file.
//
// Regenerate with UPDATE_EQUIV=1 go test -run 'TestEquivalence' . (only
// legitimate when a behavior change is intended and reviewed).
package flexftl_test

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexftl/internal/stats"
)

// cdfPinPath holds one cdfPin per golden cell, by the cell's golden name.
var cdfPinPath = filepath.Join("testdata", "fig8c_cdf.json")

// cdfPin is what Figure 8(c) reads off one run's bandwidth CDF.
type cdfPin struct {
	N       int
	Inverse []float64 // at q = i/100, i = 1..100
	Points  [][2]float64
}

func pinOf(c *stats.CDF) cdfPin {
	p := cdfPin{N: c.N(), Points: c.Points(60)}
	for i := 1; i <= 100; i++ {
		p.Inverse = append(p.Inverse, c.Inverse(float64(i)/100))
	}
	return p
}

func readCDFPins(t *testing.T) map[string]cdfPin {
	t.Helper()
	pins := map[string]cdfPin{}
	buf, err := os.ReadFile(cdfPinPath)
	if errors.Is(err, fs.ErrNotExist) && os.Getenv("UPDATE_EQUIV") != "" {
		return pins
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &pins); err != nil {
		t.Fatalf("decoding %s: %v", cdfPinPath, err)
	}
	return pins
}

// checkCDFPin compares a cell's bandwidth CDF with its pin, or with
// UPDATE_EQUIV set writes the pin.
func checkCDFPin(t *testing.T, name string, c *stats.CDF) {
	t.Helper()
	got, pins := pinOf(c), readCDFPins(t)
	if os.Getenv("UPDATE_EQUIV") != "" {
		pins[name] = got
		buf, err := json.MarshalIndent(pins, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cdfPinPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := pins[name]
	if !ok {
		t.Fatalf("%s has no bandwidth CDF pin in %s (run with UPDATE_EQUIV=1 to create)", name, cdfPinPath)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: bandwidth CDF drifted from its pin:\n got %+v\nwant %+v", name, got, want)
	}
}
