package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"flexftl/internal/sim"
)

// Trace I/O: workloads can be captured to a compact binary stream (or a
// human-readable CSV) and replayed later, so experiments are repeatable
// across machines and external traces can be fed to the simulator.

// traceMagic guards the binary format.
var traceMagic = [4]byte{'f', 'x', 't', '1'}

// ErrBadTrace is returned for malformed trace streams.
var ErrBadTrace = errors.New("workload: malformed trace")

// WriteBinary captures every request from gen to w in the compact binary
// format and returns the number of requests written.
func WriteBinary(w io.Writer, gen Generator) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return 0, err
	}
	n := 0
	var rec [21]byte
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(req.Arrival))
		rec[8] = byte(req.Op)
		binary.LittleEndian.PutUint64(rec[9:17], uint64(req.Page))
		binary.LittleEndian.PutUint32(rec[17:21], uint32(req.Pages))
		if _, err := bw.Write(rec[:]); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// Replay is a Generator over a recorded trace. Like bufio.Scanner, it stops
// at the first malformed record and keeps the error for Err, so a bad trace
// cannot pass for a shorter good one.
type Replay struct {
	name   string
	decode func() (Request, error) // io.EOF at the end of the trace
	n      int                     // records replayed
	err    error
}

// Name identifies the replayed trace.
func (r *Replay) Name() string { return r.name }

// Next returns the next record; ok is false at the end of the trace and at
// the first malformed record.
func (r *Replay) Next() (Request, bool) {
	if r.err != nil {
		return Request{}, false
	}
	req, err := r.decode()
	if err == nil {
		err = req.check()
	}
	if err != nil {
		r.err = err
		if err != io.EOF {
			r.err = fmt.Errorf("%w: record %d: %v", ErrBadTrace, r.n+1, err)
		}
		return Request{}, false
	}
	r.n++
	return req, true
}

// Err returns the first malformed-record error, which wraps ErrBadTrace, or
// nil when the trace has not ended or ended cleanly.
func (r *Replay) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// check rejects a request no generator emits.
func (req Request) check() error {
	switch {
	case req.Op > OpTrim:
		return fmt.Errorf("unknown op %d", req.Op)
	case req.Arrival < 0:
		return fmt.Errorf("negative arrival %d", req.Arrival)
	case req.Page < 0:
		return fmt.Errorf("negative page %d", req.Page)
	case req.Pages < 1:
		return fmt.Errorf("request of %d pages", req.Pages)
	}
	return nil
}

// NewBinaryReplay wraps a binary trace stream as a Replay.
func NewBinaryReplay(r io.Reader, name string) (*Replay, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	return &Replay{name: name, decode: func() (Request, error) {
		var rec [21]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = errors.New("truncated record")
			}
			return Request{}, err
		}
		return Request{
			Arrival: sim.Time(binary.LittleEndian.Uint64(rec[0:8])),
			Op:      Op(rec[8]),
			Page:    int64(binary.LittleEndian.Uint64(rec[9:17])),
			Pages:   int(binary.LittleEndian.Uint32(rec[17:21])),
		}, nil
	}}, nil
}

// WriteCSV captures every request from gen to w as
// "arrival_us,op,page,pages" lines with a header.
func WriteCSV(w io.Writer, gen Generator) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "arrival_us,op,page,pages"); err != nil {
		return 0, err
	}
	n := 0
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d\n", int64(req.Arrival), req.Op, req.Page, req.Pages); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// FormatOf names a trace file's format: explicit when set, otherwise "csv"
// for a .csv extension and "bin" for anything else.
func FormatOf(explicit, path string) string {
	if explicit != "" {
		return explicit
	}
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		return "csv"
	}
	return "bin"
}

// Open replays a trace file in the format its extension names (FormatOf).
// The replay is named by the file name without its extension, so one trace
// reports alike in either format. The returned func closes the file.
func Open(path string) (*Replay, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	newReplay := NewBinaryReplay
	if FormatOf("", path) == "csv" {
		newReplay = NewCSVReplay
	}
	gen, err := newReplay(f, name)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return gen, f.Close, nil
}

// NewCSVReplay wraps a CSV trace stream as a Replay. The header line is
// consumed immediately; blank lines are skipped.
func NewCSVReplay(r io.Reader, name string) (*Replay, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty CSV", ErrBadTrace)
	}
	if got := strings.TrimSpace(sc.Text()); got != "arrival_us,op,page,pages" {
		return nil, fmt.Errorf("%w: unexpected CSV header %.40q", ErrBadTrace, got)
	}
	return &Replay{name: name, decode: func() (Request, error) {
		line := ""
		for line == "" {
			if !sc.Scan() {
				if err := sc.Err(); err != nil {
					return Request{}, err
				}
				return Request{}, io.EOF
			}
			line = strings.TrimSpace(sc.Text())
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return Request{}, fmt.Errorf("%d fields in %q, want 4", len(parts), line)
		}
		arrival, err1 := strconv.ParseInt(parts[0], 10, 64)
		page, err2 := strconv.ParseInt(parts[2], 10, 64)
		pages, err3 := strconv.Atoi(parts[3])
		if err := errors.Join(err1, err2, err3); err != nil {
			return Request{}, err
		}
		var op Op
		switch parts[1] {
		case "R":
			op = OpRead
		case "W":
			op = OpWrite
		case "T":
			op = OpTrim
		default:
			return Request{}, fmt.Errorf("unknown op %q", parts[1])
		}
		return Request{Arrival: sim.Time(arrival), Op: op, Page: page, Pages: pages}, nil
	}}, nil
}

// Limit caps a generator at n requests (useful for warm-up splits).
func Limit(gen Generator, n int) Generator {
	return &limited{gen: gen, remaining: n}
}

type limited struct {
	gen       Generator
	remaining int
}

func (l *limited) Name() string { return l.gen.Name() }

func (l *limited) Next() (Request, bool) {
	if l.remaining <= 0 {
		return Request{}, false
	}
	l.remaining--
	return l.gen.Next()
}
