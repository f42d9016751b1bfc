package sweep

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ticks"
)

// smallMatrix covers every scenario with enough seeds to cross a
// chunk-free aggregation but stay fast.
func smallMatrix() Matrix {
	return Matrix{
		Scenarios:  ScenarioNames(),
		CostModels: []string{"zero", "paper"},
		Policies:   AllPolicies(),
		Seeds:      SeedRange(1, 4),
		Horizon:    300 * ticks.PerMillisecond,
	}
}

func resultJSONBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerCountInvariance is the tentpole contract: the aggregated
// JSON must be byte-identical whatever the worker pool size, because
// workers only fill an index-addressed slice and aggregation runs
// afterwards in fixed-size chunks merged in spec order.
func TestWorkerCountInvariance(t *testing.T) {
	m := smallMatrix()
	var ref []byte
	for _, workers := range []int{1, 3, 8} {
		res, err := Run(m, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := res.Errors(); n != 0 {
			t.Fatalf("workers=%d: %d failed runs: %s", workers, n, res.Table())
		}
		got := resultJSONBytes(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d JSON differs from workers=1 (%d vs %d bytes)", workers, len(got), len(ref))
		}
	}
}

// TestConcurrentSameSeedIsolation runs the same spec on many
// goroutines at once and demands identical metrics from each. Under
// `go test -race` this is the kernel-isolation audit: any shared
// mutable state between concurrently running kernels shows up as a
// race or a divergent result. Each scenario runs under the first
// value of its own policy axis.
func TestConcurrentSameSeedIsolation(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{
				Scenario:  sc.Name,
				CostModel: "paper",
				Policy:    sc.Policies[0],
				Seed:      42,
				Horizon:   200 * ticks.PerMillisecond,
			}

			const n = 8
			out := make([]RunMetrics, n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					out[i] = runOne(spec)
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if out[i].Err != "" {
					t.Fatalf("run %d failed: %s", i, out[i].Err)
				}
				if !reflect.DeepEqual(out[0], out[i]) {
					t.Fatalf("concurrent same-seed runs diverged:\n run 0: %+v\n run %d: %+v", out[0], i, out[i])
				}
			}
		})
	}
}

// TestStressScenarioDeterministic pins the seed-jittered generator:
// same spec, same metrics; different seed, different workload (the
// jitter really derives from the seed).
func TestStressScenarioDeterministic(t *testing.T) {
	spec := RunSpec{Scenario: "stress", CostModel: "paper", Policy: PolicyInvent,
		Seed: 7, Horizon: 400 * ticks.PerMillisecond}
	a, b := runOne(spec), runOne(spec)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("stress run failed: %q / %q", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same stress spec diverged:\n%+v\n%+v", a, b)
	}
	spec.Seed = 8
	c := runOne(spec)
	if c.Err != "" {
		t.Fatalf("stress run failed: %q", c.Err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical stress metrics; the generator ignores the seed")
	}
}

// TestSpecsExpansion checks matrix validation and the policy filter.
func TestSpecsExpansion(t *testing.T) {
	if _, err := (Matrix{Scenarios: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := (Matrix{CostModels: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown cost model accepted")
	}
	if _, err := (Matrix{Policies: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (Matrix{}).Specs(); err == nil {
		t.Error("matrix without seeds accepted")
	}

	// A repeated dimension value would run and merge its cells twice.
	for _, tc := range []struct {
		m    Matrix
		want string
	}{
		{Matrix{Scenarios: []string{"fault-crash", FaultFamily}, Seeds: []uint64{1}}, "scenario fault-crash"},
		{Matrix{CostModels: []string{"zero", "paper", "zero"}, Seeds: []uint64{1}}, "cost model zero"},
		{Matrix{Policies: []string{PolicyInvent, PolicyInvent}, Seeds: []uint64{1}}, "policy invent"},
		{Matrix{Seeds: []uint64{1, 2, 1}}, "seed 1"},
	} {
		if _, err := tc.m.Specs(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("repeated %s: Specs() = %v", tc.want, err)
		}
	}

	// overload supports only the invented policy: asking for all
	// three must produce exactly one cell's worth of specs.
	specs, err := (Matrix{
		Scenarios:  []string{"overload"},
		CostModels: []string{"zero"},
		Seeds:      SeedRange(1, 3),
	}).Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("expected 3 specs (policy filter), got %d", len(specs))
	}
	for i, s := range specs {
		if s.Policy != PolicyInvent {
			t.Errorf("spec %d policy = %q, want %q", i, s.Policy, PolicyInvent)
		}
		if s.Index != i {
			t.Errorf("spec %d carries Index %d", i, s.Index)
		}
		if s.Horizon != DefaultHorizon {
			t.Errorf("spec %d horizon = %v, want default %v", i, s.Horizon, DefaultHorizon)
		}
	}

	// A policy no requested scenario supports expands to zero runs.
	if _, err := (Matrix{
		Scenarios: []string{"overload"},
		Policies:  []string{PolicyAudioFirst},
		Seeds:     []uint64{1},
	}).Specs(); err == nil {
		t.Error("empty expansion accepted")
	}
}

// TestRunMatchesSerialAggregation pins the fixed-chunk algebra: a
// parallel Run must equal aggregating the same runOne outputs
// serially with the engine's own chunk size. (Merging under a
// *different* partition may legitimately differ in float tails —
// float addition is not associative — which is exactly why aggChunk
// is a constant and never derived from the worker count.)
func TestRunMatchesSerialAggregation(t *testing.T) {
	m := Matrix{
		Scenarios:  []string{"settop", "overload"},
		CostModels: []string{"paper"},
		Policies:   []string{PolicyInvent},
		Seeds:      SeedRange(1, 5),
		Horizon:    100 * ticks.PerMillisecond,
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := newResult()
	for lo := 0; lo < len(specs); lo += aggChunk {
		hi := lo + aggChunk
		if hi > len(specs) {
			hi = len(specs)
		}
		part := newResult()
		for i := lo; i < hi; i++ {
			part.add(specs[i], runOne(specs[i]))
		}
		want.Merge(part)
	}
	want.TotalRuns = len(specs)

	got, err := Run(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultJSONBytes(t, want), resultJSONBytes(t, got)
	if !bytes.Equal(a, b) {
		t.Fatal("parallel Run differs from serial fixed-chunk aggregation")
	}
}

// TestResultMergeCellOrder checks that merging preserves
// first-appearance cell order and accumulates counts per cell.
func TestResultMergeCellOrder(t *testing.T) {
	spec := func(sc string, seed uint64) RunSpec {
		return RunSpec{Scenario: sc, CostModel: "zero", Policy: PolicyInvent, Seed: seed}
	}
	a := newResult()
	a.add(spec("settop", 1), RunMetrics{Misses: 1, Opportunities: 10})
	a.add(spec("media", 1), RunMetrics{})
	b := newResult()
	b.add(spec("overload", 1), RunMetrics{Err: "boom"})
	b.add(spec("settop", 2), RunMetrics{Loss: 2, Opportunities: 10})
	a.Merge(b)

	cells := a.Cells()
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	order := []string{"settop", "media", "overload"}
	for i, want := range order {
		if cells[i].Scenario != want {
			t.Errorf("cell %d = %s, want %s", i, cells[i].Scenario, want)
		}
	}
	if cells[0].Runs != 2 || cells[0].LossRate.N() != 2 {
		t.Errorf("settop cell: runs=%d lossN=%d, want 2/2", cells[0].Runs, cells[0].LossRate.N())
	}
	if cells[2].Errors != 1 || cells[2].FirstError != "boom" {
		t.Errorf("overload cell did not keep the error: %+v", cells[2])
	}
	if a.Errors() != 1 {
		t.Errorf("total errors = %d, want 1", a.Errors())
	}
}

// TestPolicyAxes checks that every cell the matrix can write is a
// configuration its runner really receives. Each scenario's axis
// values must configure pairwise-distinct things; every other policy
// must expand to zero runs for it and be refused by RunFleetCluster;
// and the full single-seed matrix must be exactly the consumed cells.
func TestPolicyAxes(t *testing.T) {
	var got []int
	b := bind("test", []option[int]{{"a", 1}, {"b", 2}}, func(_ *env, v int) error {
		got = append(got, v)
		return nil
	})
	for _, pol := range []string{"b", "a"} {
		run, ok := b.resolve(pol)
		if !ok {
			t.Fatalf("bound value %q does not resolve", pol)
		}
		_ = run(nil)
	}
	if !reflect.DeepEqual(got, []int{2, 1}) {
		t.Errorf("runner received %v, want [2 1]", got)
	}
	if _, ok := b.resolve("c"); ok {
		t.Error("unbound value resolved")
	}

	for _, sc := range scenarios {
		if len(sc.Policies) == 0 || len(sc.configs) != len(sc.Policies) {
			t.Fatalf("%s: %d policies, %d configs", sc.Name, len(sc.Policies), len(sc.configs))
		}
		for i := range sc.configs {
			for j := i + 1; j < len(sc.configs); j++ {
				if sameConfig(sc.configs[i], sc.configs[j]) {
					t.Errorf("%s: %s and %s configure the same %s",
						sc.Name, sc.Policies[i], sc.Policies[j], sc.Axis)
				}
			}
		}
		for _, pol := range AllPolicies() {
			if slices.Contains(sc.Policies, pol) {
				continue
			}
			_, err := (Matrix{Scenarios: []string{sc.Name}, Policies: []string{pol}, Seeds: []uint64{1}}).Specs()
			if err == nil || !strings.Contains(err.Error(), "zero runs") {
				t.Errorf("%s/%s: off-axis policy expanded: %v", sc.Name, pol, err)
			}
			spec := RunSpec{Scenario: sc.Name, CostModel: "paper", Policy: pol, Seed: 1, Horizon: 20 * ms}
			if _, _, err := RunFleetCluster(spec, 1); err == nil {
				t.Errorf("%s/%s: RunFleetCluster accepted an off-axis policy", sc.Name, pol)
			}
		}
	}

	specs, err := (Matrix{Seeds: []uint64{1}}).Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 80 {
		t.Errorf("single-seed default matrix = %d specs, want 80", len(specs))
	}
}

// sameConfig compares two axis values: constructors by code pointer,
// everything else by value.
func sameConfig(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Func && vb.Kind() == reflect.Func {
		return va.Pointer() == vb.Pointer()
	}
	return reflect.DeepEqual(a, b)
}
