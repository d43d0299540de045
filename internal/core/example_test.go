package core_test

import (
	"fmt"
	"strings"

	"flexftl/internal/core"
)

func render(order []core.Page) string {
	parts := make([]string, len(order))
	for i, p := range order {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

// The canonical vendor order interleaves LSB and MSB pages; RPS allows all
// LSB pages of a block to be written first.
func ExampleFPSOrder() {
	fmt.Println(render(core.FPSOrder(3)))
	fmt.Println(render(core.RPSFullOrder(3)))
	// Output:
	// LSB(0) LSB(1) MSB(0) LSB(2) MSB(1) MSB(2)
	// LSB(0) LSB(1) LSB(2) MSB(0) MSB(1) MSB(2)
}

// RPS drops exactly the over-specified Constraint 4: writing LSB(2) before
// MSB(0) is illegal under FPS but legal under RPS.
func ExampleRuleSet() {
	s := core.NewBlockState(core.MLC(4))
	s.Mark(core.Page{WL: 0, Type: core.LSB})
	s.Mark(core.Page{WL: 1, Type: core.LSB})

	probe := core.Page{WL: 2, Type: core.LSB}
	fmt.Println("FPS:", core.FPS.Check(s, probe))
	fmt.Println("RPS:", core.RPS.Check(s, probe))
	// Output:
	// FPS: core: programming LSB(2) violates Constraint 4: MSB(0) not yet written
	// RPS: <nil>
}

// Every legal RPS order leaves at most one late aggressor per word line —
// the reliability invariant behind Figure 4.
func ExampleMaxAggressors() {
	mlc := core.MLC(8)
	fmt.Println("FPS:", core.MaxAggressors(mlc, core.FPSOrder(8)))
	fmt.Println("RPSfull:", core.MaxAggressors(mlc, core.RPSFullOrder(8)))
	fmt.Println("forbidden:", core.MaxAggressors(mlc, core.WorstCaseOrder(mlc)))
	// Output:
	// FPS: 1
	// RPSfull: 1
	// forbidden: 4
}

// The same rules on a 3-bit cell: the vendor staircase programs the finest
// in-range page of each diagonal first, and RPS admits the 3-phase order the
// n-phase flexFTL uses.
func ExampleFixedOrder() {
	fmt.Println(render(core.FixedOrder(core.TLC(3))))
	fmt.Println(render(core.RelaxedFullOrder(core.TLC(3))))
	// Output:
	// LSB(0) LSB(1) MSB(0) LSB(2) MSB(1) T2(0) MSB(2) T2(1) T2(2)
	// LSB(0) LSB(1) LSB(2) MSB(0) MSB(1) MSB(2) T2(0) T2(1) T2(2)
}
