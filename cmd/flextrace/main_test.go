package main

import (
	"os"
	"path/filepath"
	"testing"

	"flexftl/internal/workload"
)

func TestGenStatConvert(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "w.bin")
	csv := filepath.Join(dir, "w.csv")

	if err := cmdGen([]string{"-workload", "NTRX", "-requests", "500", "-o", bin}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStat([]string{bin}); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{bin, csv}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStat([]string{csv}); err != nil {
		t.Fatal(err)
	}
	// Round-trip back to binary.
	bin2 := filepath.Join(dir, "w2.bin")
	if err := cmdConvert([]string{csv, bin2}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(bin2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("binary -> csv -> binary round trip not identical")
	}
}

func TestGenRequiresOutput(t *testing.T) {
	if err := cmdGen([]string{"-workload", "OLTP"}); err == nil {
		t.Error("missing -o accepted")
	}
}

func TestGenUnknownWorkload(t *testing.T) {
	if err := cmdGen([]string{"-workload", "nope", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestGenZipfWorkload: gen resolves workload names as flexsim does,
// including the parameterized zipf[-THETA] profile.
func TestGenZipfWorkload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "z.bin")
	if err := cmdGen([]string{"-workload", "zipf-1.10", "-requests", "200", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStat([]string{out}); err != nil {
		t.Fatal(err)
	}
}

func TestStatMissingFile(t *testing.T) {
	if err := cmdStat([]string{"/does/not/exist"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdStat(nil); err == nil {
		t.Error("no args accepted")
	}
}

func TestConvertArity(t *testing.T) {
	if err := cmdConvert([]string{"one"}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestFormatOf(t *testing.T) {
	if workload.FormatOf("", "x.csv") != "csv" || workload.FormatOf("", "x.bin") != "bin" ||
		workload.FormatOf("csv", "x.bin") != "csv" {
		t.Error("format detection wrong")
	}
}

// TestBadTraceFails: stat and convert fail on a malformed record instead of
// summarising or converting the records before it.
func TestBadTraceFails(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("arrival_us,op,page,pages\n0,W,1,1\n10,X,2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdStat([]string{bad}); err == nil {
		t.Error("stat accepted a malformed trace")
	}
	if err := cmdConvert([]string{bad, filepath.Join(dir, "out.bin")}); err == nil {
		t.Error("convert accepted a malformed trace")
	}
}
