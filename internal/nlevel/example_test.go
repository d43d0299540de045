package nlevel_test

import (
	"fmt"

	"flexftl/internal/core"
	"flexftl/internal/nlevel"
)

// The call bench/micro.go makes: the 3-phase order of a TLC block.
func ExampleRelaxedFullOrder() {
	s := nlevel.Scheme{Levels: 3, WordLines: 2}
	order := nlevel.RelaxedFullOrder(s)
	fmt.Println(order)
	fmt.Println("max late aggressors:", core.MaxAggressors(s, order))
	// Output:
	// [LSB(0) LSB(1) MSB(0) MSB(1) T2(0) T2(1)]
	// max late aggressors: 1
}

// The vendor staircase the relaxed order is measured against.
func ExampleFixedOrder() {
	fmt.Println(core.FixedOrder(nlevel.Scheme{Levels: 2, WordLines: 3}))
	// Output:
	// [LSB(0) LSB(1) MSB(0) LSB(2) MSB(1) MSB(2)]
}
