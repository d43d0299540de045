package ftl

// SetSeq moves a scheme's sequence cursor, so the external tests can put it
// at the 40-bit ceiling without a trillion writes.
func SetSeq(b *Base, seq int64) { b.seq = seq }
