package core

import (
	"errors"
	"testing"
)

// FuzzRuleSetCheck drives arbitrary probe sequences through the three rule
// sets, on blocks of 2-4 levels, and pins the legality lattice: Check never panics (including
// out-of-range word lines and double programs), FPS-legal implies RPS-legal
// implies Unconstrained-legal, every reported violation names a genuinely
// missing prerequisite with the paper's constraint number, and Check is a
// pure function of the state.
func FuzzRuleSetCheck(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 0, 1, 0, 0, 1, 2, 0, 1, 1})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 0, 1})
	f.Add(uint8(8), uint8(0), []byte{0, 0, 1, 0, 2, 0, 0, 1, 3, 0, 1, 1})
	f.Add(uint8(2), uint8(0), []byte{255, 0, 7, 1, 0, 0})
	f.Add(uint8(3), uint8(1), []byte{0, 0, 1, 0, 0, 1, 2, 0, 1, 1, 0, 2, 0, 3})
	f.Add(uint8(2), uint8(2), []byte{0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 2, 0, 3, 1, 3})
	f.Fuzz(func(t *testing.T, wlByte, levelByte uint8, seq []byte) {
		scheme := Scheme{Levels: int(levelByte%3) + 2, WordLines: int(wlByte%16) + 1}
		s := NewBlockState(scheme)
		for i := 0; i+1 < len(seq); i += 2 {
			// One level past the block's finest, so out-of-range levels are
			// probed like out-of-range word lines.
			p := Page{WL: int(int8(seq[i])), Type: PageType(int(seq[i+1]) % (scheme.Levels + 1))}
			errFPS := FPS.Check(s, p)
			errRPS := RPS.Check(s, p)
			errUn := Unconstrained.Check(s, p)

			// FPS (C1-4) is strictly stronger than RPS (C1-3), which is
			// stronger than Unconstrained (range + double-program only).
			if errFPS == nil && errRPS != nil {
				t.Fatalf("FPS allows %v but RPS rejects it: %v", p, errRPS)
			}
			if errRPS == nil && errUn != nil {
				t.Fatalf("RPS allows %v but Unconstrained rejects it: %v", p, errUn)
			}

			var cv *ConstraintViolation
			if errors.As(errRPS, &cv) {
				if cv.Constraint < 1 || cv.Constraint > 3 {
					t.Fatalf("RPS violation cites Constraint %d outside C1-3", cv.Constraint)
				}
				if cv.Page != p {
					t.Fatalf("violation names page %v, probed %v", cv.Page, p)
				}
				if s.Written(cv.Missing) {
					t.Fatalf("violation claims %v missing but it is written", cv.Missing)
				}
			}
			if errors.As(errFPS, &cv) {
				if cv.Constraint < 1 || cv.Constraint > 4 {
					t.Fatalf("FPS violation cites Constraint %d outside C1-4", cv.Constraint)
				}
				if s.Written(cv.Missing) {
					t.Fatalf("violation claims %v missing but it is written", cv.Missing)
				}
			}

			// Check must not mutate the state: probing twice agrees.
			if again := FPS.Check(s, p); (again == nil) != (errFPS == nil) {
				t.Fatalf("FPS.Check not deterministic for %v: %v then %v", p, errFPS, again)
			}

			// Advance along the RPS-legal path so deeper states get probed.
			if errRPS == nil {
				before := s.Programmed()
				s.Mark(p)
				if s.Programmed() != before+1 {
					t.Fatalf("Mark(%v) moved programmed %d -> %d", p, before, s.Programmed())
				}
			}
		}
		// A full block admits no further program under any rule set.
		if s.Full() {
			if next := LegalNext(RPS, s); len(next) != 0 {
				t.Fatalf("full block still has RPS-legal pages: %v", next)
			}
		}
	})
}
