// Command flextrace generates, inspects and converts workload traces:
//
//	flextrace gen -workload Varmail -requests 100000 -o varmail.bin
//	flextrace gen -workload OLTP -format csv -o oltp.csv
//	flextrace stat varmail.bin
//	flextrace convert varmail.bin varmail.csv
//
// Binary traces use the compact fxt1 format (21 bytes/record); CSV traces
// are "arrival_us,op,page,pages" with a header, importable from external
// sources.
package main

import (
	"flag"
	"fmt"
	"os"

	"flexftl/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  flextrace gen -workload <name> [-requests N] [-space PAGES] [-seed S] [-format bin|csv] -o FILE
  flextrace stat FILE
  flextrace convert SRC DST`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		wlName   = fs.String("workload", "Varmail", "workload profile")
		requests = fs.Int("requests", 100000, "requests to generate")
		space    = fs.Int64("space", 1<<20, "logical space in pages")
		seed     = fs.Uint64("seed", 42, "generator seed")
		format   = fs.String("format", "", "bin or csv (default: by file extension)")
		out      = fs.String("o", "", "output file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	prof, err := workload.FindProfile(*wlName)
	if err != nil {
		return err
	}
	gen, err := workload.New(prof, *space, *requests, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	var n int
	if workload.FormatOf(*format, *out) == "csv" {
		n, err = workload.WriteCSV(f, gen)
	} else {
		n, err = workload.WriteBinary(f, gen)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d %s requests to %s\n", n, prof.Name, *out)
	return nil
}

func cmdStat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stat: exactly one trace file expected")
	}
	gen, closer, err := workload.Open(args[0])
	if err != nil {
		return err
	}
	defer closer()
	st := workload.Summarize(gen)
	if err := gen.Err(); err != nil {
		return err
	}
	fmt.Printf("trace      : %s\n%s\n", args[0], st)
	return nil
}

func cmdConvert(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("convert: SRC and DST expected")
	}
	gen, closer, err := workload.Open(args[0])
	if err != nil {
		return err
	}
	defer closer()
	dst, err := os.Create(args[1])
	if err != nil {
		return err
	}
	var n int
	if workload.FormatOf("", args[1]) == "csv" {
		n, err = workload.WriteCSV(dst, gen)
	} else {
		n, err = workload.WriteBinary(dst, gen)
	}
	if err == nil {
		err = gen.Err()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("converted %d requests: %s -> %s\n", n, args[0], args[1])
	return nil
}
