package nand

// RelTableStats sums the bracket-table counters over chips, for the external
// tests: reads the bracket answered, table entries computed, and reads the
// bracket left to the exact evaluation.
func (d *Device) RelTableStats() (hits, fills, fallbacks int64) {
	for i := range d.relTables {
		t := &d.relTables[i]
		hits, fills, fallbacks = hits+t.hits, fills+t.fills, fallbacks+t.fallbacks
	}
	return hits, fills, fallbacks
}
