package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// binTrace encodes raw binary trace records (arrival, op, page, pages) after
// the magic, bypassing WriteBinary so that a record can hold what no
// generator emits; cut drops that many bytes from the end.
func binTrace(cut int, recs ...[4]int64) []byte {
	out := append([]byte(nil), traceMagic[:]...)
	for _, r := range recs {
		var rec [21]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(r[0]))
		rec[8] = byte(r[1])
		binary.LittleEndian.PutUint64(rec[9:17], uint64(r[2]))
		binary.LittleEndian.PutUint32(rec[17:21], uint32(r[3]))
		out = append(out, rec[:]...)
	}
	return out[:len(out)-cut]
}

func csvTrace(rows ...string) []byte {
	return []byte("arrival_us,op,page,pages\n" + strings.Join(rows, "\n") + "\n")
}

// TestReplayRejectsMalformed: in both formats, a malformed second record
// ends the replay after the first, and Err names it as ErrBadTrace at
// record 2 — it is neither replayed as something else nor taken for the
// end of a shorter trace. A well-formed trace ends with a nil Err.
func TestReplayRejectsMalformed(t *testing.T) {
	good, goodRec := "0,W,1,1", [4]int64{0, int64(OpWrite), 1, 1}
	cases := []struct {
		name string
		csv  bool
		data []byte
	}{
		{"csv unknown op", true, csvTrace(good, "10,X,2,1", good)},
		{"csv non-integer arrival", true, csvTrace(good, "ten,W,2,1", good)},
		{"csv non-integer page", true, csvTrace(good, "10,W,two,1", good)},
		{"csv non-integer pages", true, csvTrace(good, "10,W,2,oops", good)},
		{"csv negative arrival", true, csvTrace(good, "-10,W,2,1", good)},
		{"csv negative page", true, csvTrace(good, "10,W,-5,1", good)},
		{"csv zero pages", true, csvTrace(good, "10,W,2,0", good)},
		{"csv negative pages", true, csvTrace(good, "10,W,2,-3", good)},
		{"csv three fields", true, csvTrace(good, "10,W,2", good)},
		{"binary unknown op", false, binTrace(0, goodRec, [4]int64{10, 3, 2, 1}, goodRec)},
		{"binary negative arrival", false, binTrace(0, goodRec, [4]int64{-10, int64(OpWrite), 2, 1}, goodRec)},
		{"binary negative page", false, binTrace(0, goodRec, [4]int64{10, int64(OpRead), -5, 1}, goodRec)},
		{"binary zero pages", false, binTrace(0, goodRec, [4]int64{10, int64(OpTrim), 2, 0}, goodRec)},
		{"binary truncated record", false, binTrace(5, goodRec, goodRec)},
	}
	open := func(csv bool, data []byte) *Replay {
		t.Helper()
		var r *Replay
		var err error
		if csv {
			r, err = NewCSVReplay(bytes.NewReader(data), "t")
		} else {
			r, err = NewBinaryReplay(bytes.NewReader(data), "t")
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := open(c.csv, c.data)
			want := Request{Op: OpWrite, Page: 1, Pages: 1}
			if req, ok := r.Next(); !ok || req != want {
				t.Fatalf("first record = %+v, %v; want %+v", req, ok, want)
			}
			for i := 0; i < 2; i++ {
				if req, ok := r.Next(); ok {
					t.Fatalf("malformed trace replayed %+v", req)
				}
			}
			err := r.Err()
			if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "record 2:") {
				t.Fatalf("Err() = %v, want ErrBadTrace at record 2", err)
			}
		})
	}
	for _, csv := range []bool{true, false} {
		data := binTrace(0, goodRec, goodRec)
		if csv {
			data = csvTrace(good, "", good)
		}
		r := open(csv, data)
		n := 0
		for _, ok := r.Next(); ok; _, ok = r.Next() {
			n++
		}
		if n != 2 || r.Err() != nil {
			t.Errorf("csv=%v: well-formed trace replayed %d records, Err() = %v; want 2, nil", csv, n, r.Err())
		}
	}
}
