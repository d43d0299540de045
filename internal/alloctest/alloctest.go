// Package alloctest counts heap allocations exactly, for the tests that
// guard an allocation count.
//
// testing.AllocsPerRun(runs, f) divides the allocations of runs calls by
// runs in integers, so a guard of 0 at runs = 100 passes while f allocates
// up to 99 times in all: exactly the amortised growth (a slice that doubles
// now and then) such a guard exists to catch. Count makes the same calls and
// returns their total.
package alloctest

import "testing"

// Count calls f once to warm up, as testing.AllocsPerRun does, then runs
// times, and returns how many heap allocations those runs calls made in all.
func Count(runs int, f func()) int {
	calls := 1 // AllocsPerRun calls the batch once to warm up, then measures it
	return int(testing.AllocsPerRun(1, func() {
		for range calls {
			f()
		}
		calls = runs
	}))
}
