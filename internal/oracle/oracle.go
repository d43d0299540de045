// Package oracle is the host's model of what it is owed: the one definition
// of "data lost" that the crash campaign, the aging campaign and the
// equivalence goldens judge host reads by.
//
// The host reports each acknowledged write (Ack, with the sequence number
// Kernel.Seq() its token carried) and each discard (Trim). A later on-flash
// copy of an LPN (a retokenized GC relocation) carries a sequence at least
// as high, so a clean read with the LPN's own token at or above the floor is
// exactly "the acknowledged data survived".
//
// Check tells a detected loss, a read that failed loudly (any error but
// ftl.ErrUnmapped), from a violation, a read the host was never owed: a
// foreign token, a sequence below the floor, an acknowledged LPN read as
// ftl.ErrUnmapped, a clean read of a lost LPN (lost pages stay lost until
// rewritten), or a clean read of a trimmed or never-written LPN (whose legal
// answer is ftl.ErrUnmapped). Whether a loss is acceptable is the caller's
// rule: the aging campaign counts it, a power cut under a parity scheme may
// not cause one.
package oracle

import (
	"errors"
	"fmt"

	"flexftl/internal/ftl"
)

// Violation is a read outcome the host was never owed.
type Violation string

func (v Violation) Error() string { return string(v) }

const (
	trimmed uint8 = 1 << iota
	lost
)

// Oracle holds each LPN's acknowledged floor and trimmed and lost flags.
type Oracle struct {
	floor []int64 // -1 = never acknowledged; 0 = acknowledged without a floor
	flags []uint8
}

// New returns an oracle over logical LPNs, none of them written.
func New(logical int64) *Oracle {
	o := &Oracle{floor: make([]int64, logical), flags: make([]uint8, logical)}
	for i := range o.floor {
		o.floor[i] = -1
	}
	return o
}

// Ack records an acknowledged write of lpn whose token carried sequence seq.
// seq 0 acknowledges the LPN without a floor: any copy of it will do.
func (o *Oracle) Ack(lpn ftl.LPN, seq int64) { o.floor[lpn], o.flags[lpn] = seq, 0 }

// Trim records a discard of lpn (of a never-written LPN: nothing).
func (o *Oracle) Trim(lpn ftl.LPN) {
	if o.floor[lpn] >= 0 {
		o.flags[lpn] |= trimmed
	}
}

// Acked reports whether lpn holds acknowledged data: written, not trimmed.
func (o *Oracle) Acked(lpn ftl.LPN) bool { return o.floor[lpn] >= 0 && !o.Trimmed(lpn) }

// Trimmed reports whether lpn was written and then trimmed.
func (o *Oracle) Trimmed(lpn ftl.LPN) bool { return o.flags[lpn]&trimmed != 0 }

// Trims counts the trimmed LPNs.
func (o *Oracle) Trims() int { return o.count(trimmed) }

// Losses counts the LPNs pinned as lost.
func (o *Oracle) Losses() int { return o.count(lost) }

func (o *Oracle) count(flag uint8) (n int) {
	for _, f := range o.flags {
		if f&flag != 0 {
			n++
		}
	}
	return n
}

// Check judges a host read of lpn that returned data and readErr: nil for a
// read the host may get, readErr itself for a detected loss, a Violation
// otherwise. A passing Check allocates nothing.
func (o *Oracle) Check(lpn ftl.LPN, data []byte, readErr error) error {
	switch {
	case errors.Is(readErr, ftl.ErrUnmapped):
		if o.Acked(lpn) {
			return Violation("acknowledged write unmapped")
		}
		return nil
	case readErr != nil:
		o.flags[lpn] |= lost
		return readErr
	case o.flags[lpn]&lost != 0:
		return Violation("clean read after a detected loss (lost pages must stay lost)")
	case !o.Acked(lpn):
		return Violation("clean read of a trimmed or never-written LPN")
	}
	if tok, ok := ftl.TokenLPN(data); !ok || tok != lpn {
		return Violation(fmt.Sprintf("token LPN %v, want %v", tok, lpn))
	}
	if seq, floor := ftl.TokenSeq(data), uint64(o.floor[lpn]); seq < floor {
		return Violation(fmt.Sprintf("stale data: sequence %d below acknowledged floor %d", seq, floor))
	}
	return nil
}
