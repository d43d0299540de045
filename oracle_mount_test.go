package flexftl_test

import (
	"testing"

	"flexftl/internal/ftl"
	"flexftl/internal/oracle"
	"flexftl/internal/sim"
)

// oracleFTL mounts the host oracle on a golden's run. It embeds *ftl.Kernel
// and overrides only the three host operations, so everything else the run
// and the golden read (ResetCounters, Stats, TotalFreeBlocks, MappingHash)
// is the kernel's own and the goldens stay byte-identical. The run path
// carries no hook for it: a run without the decorator pays nothing.
type oracleFTL struct {
	*ftl.Kernel
	orc   *oracle.Oracle
	reads int
	bad   int
	first string
}

func mountOracle(t *testing.T, f ftl.FTL) *oracleFTL {
	t.Helper()
	k, ok := f.(*ftl.Kernel)
	if !ok {
		t.Fatalf("%s is not an ftl.Kernel", f.Name())
	}
	return &oracleFTL{Kernel: k, orc: oracle.New(k.LogicalPages())}
}

func (m *oracleFTL) Write(lpn ftl.LPN, now sim.Time, util float64) (sim.Time, error) {
	done, err := m.Kernel.Write(lpn, now, util)
	if err == nil {
		m.orc.Ack(lpn, m.Seq())
	}
	return done, err
}

// Read passes the kernel's answer on unchanged and judges it on the side.
// The golden devices carry no BER model, so a detected loss is as wrong as
// a violation.
func (m *oracleFTL) Read(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	done, err := m.Kernel.Read(lpn, now)
	m.reads++
	if cerr := m.orc.Check(lpn, m.Buf.Data, err); cerr != nil {
		if m.bad == 0 {
			m.first = cerr.Error()
		}
		m.bad++
	}
	return done, err
}

func (m *oracleFTL) Trim(lpn ftl.LPN, now sim.Time) (sim.Time, error) {
	done, err := m.Kernel.Trim(lpn, now)
	if err == nil {
		m.orc.Trim(lpn)
	}
	return done, err
}

// verify fails t unless the run read something and every read passed.
func (m *oracleFTL) verify(t *testing.T) {
	t.Helper()
	if m.reads == 0 {
		t.Error("no host read reached the oracle")
	}
	t.Logf("oracle: %d host reads, %d failed", m.reads, m.bad)
	if m.bad > 0 {
		t.Errorf("%d of %d host reads failed the oracle; the first: %s", m.bad, m.reads, m.first)
	}
}
