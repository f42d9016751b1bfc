package fleet

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// TestLeastLoadedOrderMatchesStableSort checks placementOrder's
// least-loaded order against the order it must keep: a stable sort by
// load over the node IDs. Loads come from a small set, so ties are
// common; equal rates are written with different periods; and some
// nodes are down, which puts them at FracOne alongside any full node.
func TestLeastLoadedOrderMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(1)
	periods := []ticks.Ticks{5 * ticks.PerMillisecond, 10 * ticks.PerMillisecond, 20 * ticks.PerMillisecond}
	pcts := []ticks.Ticks{0, 10, 25, 50, 100}
	for trial := 0; trial < 30; trial++ {
		c, err := New(Config{Nodes: 1 + rng.Intn(12), Seed: uint64(trial), Workers: 1, Placement: LeastLoaded})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.nodes {
			if rng.Intn(5) == 0 {
				n.down = true
				continue
			}
			pct := pcts[rng.Intn(len(pcts))]
			if pct == 0 {
				continue
			}
			p := periods[rng.Intn(len(periods))]
			if _, err := n.d.RequestAdmittance(&task.Task{
				Name: "load", List: task.SingleLevel(p, p*pct/100, "L"), Body: task.Busy(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, len(c.nodes))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool {
			return c.nodes[want[i]].load().Cmp(c.nodes[want[j]].load()) < 0
		})
		// Twice: the second call reuses the first's scratch.
		for pass := 0; pass < 2; pass++ {
			if got := c.placementOrder(&admRec{}); !slices.Equal(got, want) {
				t.Fatalf("trial %d pass %d: order %v, want %v", trial, pass, got, want)
			}
		}
	}
}
