package oracle

import (
	"encoding/binary"
	"fmt"
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/rel"
)

// token lays out a data page's payload the way ftl.Base.Token does: the LPN
// in bytes 0–3, the sequence number in bytes 4–8.
func token(lpn ftl.LPN, seq uint64) []byte {
	b := make([]byte, ftl.TokenSize)
	binary.LittleEndian.PutUint32(b[0:4], uint32(lpn))
	binary.LittleEndian.PutUint32(b[4:8], uint32(seq))
	b[8] = byte(seq >> 32)
	return b
}

// uncorrectable is a read that failed loudly, as the host read path reports
// it.
var uncorrectable = fmt.Errorf("ftl: host read of LPN 5: %w", rel.ErrUncorrectable)

type verdict int

const (
	pass verdict = iota
	loss
	violation
)

func (v verdict) String() string { return [...]string{"pass", "loss", "violation"}[v] }

func judge(err error) verdict {
	if err == nil {
		return pass
	}
	if _, bad := err.(Violation); bad {
		return violation
	}
	return loss
}

// TestCheck trips every violation kind once and passes every legal outcome.
// LPN 5 is acknowledged at sequence 10 unless a case's history says
// otherwise; the last read of each history is the one judged.
func TestCheck(t *testing.T) {
	type read struct {
		data []byte
		err  error
	}
	for _, tc := range []struct {
		name    string
		history func(o *Oracle)
		read    read
		want    verdict
	}{
		// Violations.
		{"foreign token", nil, read{token(6, 10), nil}, violation},
		{"sequence floor-1", nil, read{token(5, 9), nil}, violation},
		{"acknowledged LPN unmapped", nil, read{nil, ftl.ErrUnmapped}, violation},
		{"clean read after a loss", func(o *Oracle) { o.Check(5, nil, uncorrectable) }, read{token(5, 10), nil}, violation},
		{"clean read of a trimmed LPN", func(o *Oracle) { o.Trim(5) }, read{token(5, 10), nil}, violation},
		{"clean read of a never-written LPN", func(o *Oracle) { *o = *New(8) }, read{token(5, 10), nil}, violation},
		{"short payload", nil, read{[]byte{5, 0}, nil}, violation},

		// Legal outcomes.
		{"acknowledged data at the floor", nil, read{token(5, 10), nil}, pass},
		{"sequence above the floor after a GC re-token", nil, read{token(5, 1<<33), nil}, pass},
		{"never-written LPN unmapped", func(o *Oracle) { *o = *New(8) }, read{nil, ftl.ErrUnmapped}, pass},
		{"trimmed LPN unmapped", func(o *Oracle) { o.Trim(5) }, read{nil, fmt.Errorf("wrapped: %w", ftl.ErrUnmapped)}, pass},
		{"detected loss", nil, read{nil, uncorrectable}, loss},
		{"lost LPN fails again", func(o *Oracle) { o.Check(5, nil, uncorrectable) }, read{nil, uncorrectable}, loss},
		{"rewrite after a loss", func(o *Oracle) { o.Check(5, nil, uncorrectable); o.Ack(5, 11) }, read{token(5, 11), nil}, pass},
		{"rewrite after a trim", func(o *Oracle) { o.Trim(5); o.Ack(5, 11) }, read{token(5, 11), nil}, pass},
		{"acknowledged without a floor", func(o *Oracle) { o.Ack(5, 0) }, read{token(5, 1), nil}, pass},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := New(8)
			o.Ack(5, 10)
			if tc.history != nil {
				tc.history(o)
			}
			err := o.Check(5, tc.read.data, tc.read.err)
			if got := judge(err); got != tc.want {
				t.Fatalf("Check = %v (%v), want %v", got, err, tc.want)
			}
			if tc.want == loss && err != tc.read.err {
				t.Errorf("a loss returned %v, want the read error itself", err)
			}
		})
	}
}

// The violations name what went wrong in the words the crash campaign's
// reports use.
func TestViolationText(t *testing.T) {
	o := New(8)
	o.Ack(5, 1615)
	for _, tc := range []struct {
		data []byte
		err  error
		want string
	}{
		{token(5, 1), nil, "stale data: sequence 1 below acknowledged floor 1615"},
		{token(7, 1615), nil, "token LPN 7, want 5"},
		{nil, ftl.ErrUnmapped, "acknowledged write unmapped"},
	} {
		if err := o.Check(5, tc.data, tc.err); err == nil || err.Error() != tc.want {
			t.Errorf("Check = %v, want %q", err, tc.want)
		}
	}
}

func TestCounts(t *testing.T) {
	o := New(8)
	for lpn := ftl.LPN(0); lpn < 4; lpn++ {
		o.Ack(lpn, int64(lpn)+1)
	}
	o.Trim(1)
	o.Trim(2)
	o.Trim(6) // never written: nothing to discard
	o.Check(3, nil, uncorrectable)
	o.Check(3, nil, uncorrectable)
	if got := o.Trims(); got != 2 {
		t.Errorf("Trims = %d, want 2", got)
	}
	if got := o.Losses(); got != 1 {
		t.Errorf("Losses = %d, want 1 (a lost LPN counts once)", got)
	}
	for lpn, want := range []bool{true, false, false, true, false, false, false, false} {
		if got := o.Acked(ftl.LPN(lpn)); got != want {
			t.Errorf("Acked(%d) = %v, want %v", lpn, got, want)
		}
	}
	if o.Trimmed(6) || !o.Trimmed(1) {
		t.Error("Trimmed marks only written LPNs")
	}
}

// A passing Check allocates nothing. The batch is counted whole, at one run,
// so amortised growth cannot average below one allocation per run.
func TestCheckAllocatesNothing(t *testing.T) {
	const n = 64
	o := New(n)
	toks := make([][]byte, n)
	for lpn := ftl.LPN(0); lpn < n; lpn++ {
		o.Ack(lpn, int64(lpn)+1)
		toks[lpn] = token(lpn, uint64(lpn)+1)
	}
	o.Trim(n - 1)
	batch := func() {
		for i := 0; i < 16; i++ {
			for lpn := ftl.LPN(0); lpn < n-1; lpn++ {
				if err := o.Check(lpn, toks[lpn], nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.Check(n-1, nil, ftl.ErrUnmapped); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("%v allocations over %d passing Checks, want 0", allocs, 16*n)
	}
}
