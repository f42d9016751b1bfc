package rm

import (
	"fmt"
	"testing"

	"repro/internal/task"
)

// TestRecomputeAllocsIndependentOfN pins §6.3 grant recomputation's
// allocations: one SetQuiescent+Wake pair in overload recomputes the
// grant set twice, and each recompute may allocate only the grant set
// and the ID list it commits, whatever the number of tasks. The
// correlation lists, member IDs, shares and walk orders are the
// Manager's reused scratch, and an empty Policy Box invents without
// building a key.
func TestRecomputeAllocsIndependentOfN(t *testing.T) {
	const maxAllocs = 12
	counts := map[int]float64{}
	for _, n := range []int{16, 64} {
		m := New(Config{})
		var last task.ID
		for i := 0; i < n; i++ {
			id, err := m.RequestAdmittance(newTask(fmt.Sprintf("t%d", i),
				task.UniformLevels(270_000, "T", 90, 50, 20, 10, 5, 2, 1)))
			if err != nil {
				t.Fatal(err)
			}
			last = id
		}
		if m.LastOp().FastPath {
			t.Fatalf("n=%d: the set is not overloaded", n)
		}
		counts[n] = testing.AllocsPerRun(100, func() {
			if err := m.SetQuiescent(last); err != nil {
				t.Fatal(err)
			}
			if err := m.Wake(last); err != nil {
				t.Fatal(err)
			}
		})
		if !m.LastOp().PolicyConsulted {
			t.Fatalf("n=%d: the pair did not consult the policy", n)
		}
		if counts[n] > maxAllocs {
			t.Errorf("n=%d: %.0f allocs per SetQuiescent+Wake, want <= %d", n, counts[n], maxAllocs)
		}
	}
	if counts[16] != counts[64] {
		t.Errorf("allocs per SetQuiescent+Wake grow with N: %.0f at n=16, %.0f at n=64", counts[16], counts[64])
	}
}
