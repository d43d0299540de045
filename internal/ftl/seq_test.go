package ftl_test

import (
	"errors"
	"testing"

	"flexftl/internal/core"
	"flexftl/internal/ftl"
	"flexftl/internal/ftl/nflex"
	"flexftl/internal/nand"
)

// baseOf returns the shared runtime of a registered scheme.
func baseOf(t *testing.T, f ftl.FTL) *ftl.Base {
	t.Helper()
	switch s := f.(type) {
	case *ftl.Kernel:
		return s.Base
	case *nflex.FTL:
		return s.Base
	}
	t.Fatalf("%s: no Base", f.Name())
	return nil
}

// TestSeqCeiling: a token stores its sequence number in 40 bits, so the
// write paths refuse to issue one that could pass MaxSeq instead of letting
// the field wrap. Every registered scheme's host Write, with fewer than a
// device's worth of sequence numbers left, returns ErrSeqExhausted and
// programs nothing; with exactly a device's worth left it writes. An epoch
// whose per-shard token ranges would pass MaxSeq is refused the same way.
// Sequence numbers on both sides of the 32-bit split, and MaxSeq itself,
// round-trip through Token and TokenSeq.
func TestSeqCeiling(t *testing.T) {
	g := nand.TestGeometry()
	for _, name := range ftl.Names() {
		f, err := ftl.BuildFTL(name, ftl.BuildEnv{Geometry: g, Config: ftl.DefaultConfig(), Flex: ftl.DefaultFlexParams()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := baseOf(t, f)
		edge := int64(ftl.MaxSeq - f.Device().Layout().Pages())
		ftl.SetSeq(b, edge+1)
		before := f.Device().Counts()
		if _, err := f.Write(0, 0, 0.5); !errors.Is(err, ftl.ErrSeqExhausted) {
			t.Errorf("%s: write one past the edge: err = %v, want ErrSeqExhausted", name, err)
		}
		if after := f.Device().Counts(); after != before {
			t.Errorf("%s: a refused write changed the device counts: %+v -> %+v", name, before, after)
		}
		if got := b.Seq(); got != edge+1 {
			t.Errorf("%s: a refused write moved the sequence from %d to %d", name, edge+1, got)
		}
		ftl.SetSeq(b, edge)
		if _, err := f.Write(0, 0, 0.5); err != nil {
			t.Errorf("%s: write at the edge: %v", name, err)
		}
	}

	dev, err := nand.NewDevice(nand.Config{Geometry: g, Timing: nand.DefaultTiming(), Rules: core.RPS})
	if err != nil {
		t.Fatal(err)
	}
	k, err := ftl.NewFlexFTL(dev, ftl.DefaultConfig(), ftl.DefaultFlexParams())
	if err != nil {
		t.Fatal(err)
	}
	r := ftl.NewShardRunner(k, 1)
	defer r.Close()
	edge := int64(ftl.MaxSeq - (g.Channels+1)<<32)
	for _, c := range []struct {
		seq     int64
		refused bool
	}{{edge + 1, true}, {edge, false}} {
		ftl.SetSeq(k.Base, c.seq)
		ops := []ftl.EpochOp{{Write: true, LPN: 1, Chip: k.PeekChip(0), Util: 0.5}}
		before := dev.Counts()
		err := r.ExecEpoch(ops)
		if c.refused {
			if !errors.Is(err, ftl.ErrSeqExhausted) {
				t.Errorf("epoch at sequence %d: err = %v, want ErrSeqExhausted", c.seq, err)
			}
			if after := dev.Counts(); after != before || k.Seq() != c.seq || ops[0].Done != 0 {
				t.Errorf("a refused epoch ran: counts %+v -> %+v, sequence %d -> %d, done %v", before, after, c.seq, k.Seq(), ops[0].Done)
			}
		} else if err != nil {
			t.Errorf("epoch at sequence %d: %v", c.seq, err)
		}
	}

	const lpn = ftl.LPN(nand.MaxPages - 1)
	for _, seq := range []int64{1, 1<<32 - 1, 1 << 32, 1<<32 + 1, ftl.MaxSeq} {
		ftl.SetSeq(k.Base, seq-1) // Token advances it to seq
		tok := k.Token(lpn)
		if got := ftl.TokenSeq(tok); got != uint64(seq) {
			t.Errorf("TokenSeq(Token) = %d, want %d", got, seq)
		}
		if got, ok := ftl.TokenLPN(tok); !ok || got != lpn {
			t.Errorf("sequence %d: TokenLPN = %d,%v, want %d", seq, got, ok, lpn)
		}
	}
}
