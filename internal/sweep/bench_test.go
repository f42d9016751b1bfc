package sweep

import (
	"testing"

	"repro/internal/ticks"
)

// benchCell runs spec once per iteration.
func benchCell(b *testing.B, spec RunSpec) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := runOne(spec)
		if out.Err != "" {
			b.Fatalf("run failed: %s", out.Err)
		}
	}
}

// BenchmarkSweepCell measures one full sweep run — the unit the
// rdsweep matrix multiplies by (scenarios × cost models × policies ×
// seeds). Construction allocations (kernel, manager, scheduler,
// workloads) are inherent here; the figure to watch is ns/op, which
// bounds achievable cells/sec.
func BenchmarkSweepCell(b *testing.B) {
	benchCell(b, RunSpec{
		Scenario:  "settop",
		CostModel: "paper",
		Policy:    PolicyInvent,
		Seed:      1,
		Horizon:   2 * ticks.PerSecond,
	})
}

// BenchmarkFleetCrashCell measures one 120-node fleet-crash cell under
// first-fit, where about thirteen refused RM probes precede each
// placement: the admission probe path, the epoch barrier and the
// per-node invariant checkers dominate its cost.
func BenchmarkFleetCrashCell(b *testing.B) {
	benchCell(b, RunSpec{
		Scenario:  "fleet-crash",
		CostModel: "paper",
		Policy:    PolicyFleetFirstFit,
		Seed:      1,
		Horizon:   2 * ticks.PerSecond,
	})
}
