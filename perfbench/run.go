package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// digests fingerprints one pass over a workload: the sha256 of its
// results JSON and, for cluster workloads, of its stitched cluster
// manifests. Every pass over the same jobs must produce the same
// digests, whatever the worker count.
type digests struct {
	Results  string
	Manifest string
}

// pass is what one pass over a workload's jobs produced.
type pass struct {
	digests
	wall     time.Duration
	failures []string
	// counters is the merged telemetry of every run in the pass.
	counters telemetry.Snapshot

	// Traced passes only: per-run host time in job order, and, for
	// sweep workloads, the time spent encoding the merged results.
	cellTimes []time.Duration
	report    time.Duration

	// Cluster passes only (summed over runs): time to stitch and to
	// encode the cluster manifests, their spans and encoded bytes.
	stitch, encode time.Duration
	spans          int64
	manifestBytes  int64
}

// countingHash is an in-memory sink for encoded outputs: it hashes
// and counts the bytes and keeps none of them.
type countingHash struct {
	h hash.Hash
	n int64
}

func newCountingHash() *countingHash { return &countingHash{h: sha256.New()} }

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (c *countingHash) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }

// runPass executes every job once. Sweep workloads run each job as a
// one-spec sweep.Run on a closed-loop pool of workers goroutines (a
// worker takes the next job when its current one finishes), then fold
// the per-run results in job order and encode the merged result.
// Cluster workloads run their jobs one after another, each on a
// cluster node-advance pool of workers goroutines.
func runPass(w *workload, jobs []job, workers int, traced bool) pass {
	start := time.Now()
	var p pass
	if w.Cluster {
		p = runClusterPass(jobs, workers, traced)
	} else {
		p = runSweepPass(jobs, workers, traced)
	}
	p.wall = time.Since(start)
	return p
}

func runSweepPass(jobs []job, workers int, traced bool) pass {
	results := make([]*sweep.Result, len(jobs))
	errs := make([]error, len(jobs))
	var times []time.Duration
	if traced {
		times = make([]time.Duration, len(jobs))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				t0 := time.Now()
				results[k], errs[k] = runSpec(jobs[k].spec)
				if traced {
					times[k] = time.Since(t0)
				}
			}
		}()
	}
	wg.Wait()

	p := pass{cellTimes: times}
	var total *sweep.Result
	for k, r := range results {
		if errs[k] != nil {
			p.failures = append(p.failures, errs[k].Error())
			continue
		}
		if err := checkResult(r, jobs[k]); err != nil {
			p.failures = append(p.failures, err.Error())
		}
		for _, c := range r.Cells() {
			p.counters.Merge(c.Telemetry)
		}
		if total == nil {
			total = r
		} else {
			total.Merge(r)
		}
	}
	out := newCountingHash()
	if total != nil {
		t0 := time.Now()
		if err := total.WriteJSON(out); err != nil {
			p.failures = append(p.failures, fmt.Sprintf("encode results: %v", err))
		}
		p.report = time.Since(t0)
	}
	p.Results = out.sum()
	return p
}

// runSpec runs one spec through sweep's public entry point.
func runSpec(s sweep.RunSpec) (*sweep.Result, error) {
	return sweep.Run(sweep.Matrix{
		Scenarios:  []string{s.Scenario},
		CostModels: []string{s.CostModel},
		Policies:   []string{s.Policy},
		Seeds:      []uint64{s.Seed},
		Horizon:    s.Horizon,
	}, sweep.Options{Workers: 1})
}

func runClusterPass(jobs []job, workers int, traced bool) pass {
	var p pass
	results, manifests := newCountingHash(), newCountingHash()
	for _, j := range jobs {
		t0 := time.Now()
		c, rep, err := sweep.RunFleetCluster(j.spec, workers)
		if traced {
			p.cellTimes = append(p.cellTimes, time.Since(t0))
		}
		if err != nil {
			p.failures = append(p.failures, err.Error())
			continue
		}
		if err := checkReport(rep, j); err != nil {
			p.failures = append(p.failures, err.Error())
		}
		p.counters.Merge(rep.Telemetry)
		results.Write([]byte(rep.Summary()))

		t0 = time.Now()
		m, err := c.Manifest()
		p.stitch += time.Since(t0)
		if err != nil {
			p.failures = append(p.failures, err.Error())
			continue
		}
		before := manifests.n
		t0 = time.Now()
		if err := m.WriteJSON(manifests); err != nil {
			p.failures = append(p.failures, fmt.Sprintf("encode manifest: %v", err))
		}
		p.encode += time.Since(t0)
		p.manifestBytes += manifests.n - before
		p.spans += int64(len(m.Spans))
	}
	p.Results, p.Manifest = results.sum(), manifests.sum()
	return p
}

// checkResult is the correctness gate for one sweep run: the result
// holds exactly the job's cell and run, the run reported no error and
// no invariant violation, and its crash ledger balances.
func checkResult(r *sweep.Result, j job) error {
	s := j.spec
	name := fmt.Sprintf("%s/%s/%s seed %d", s.Scenario, s.CostModel, s.Policy, s.Seed)
	cells := r.Cells()
	if r.TotalRuns != 1 || len(cells) != 1 {
		return fmt.Errorf("%s: result holds %d runs in %d cells, want 1 in 1", name, r.TotalRuns, len(cells))
	}
	c := cells[0]
	if c.Key != (sweep.Key{Scenario: s.Scenario, CostModel: s.CostModel, Policy: s.Policy}) {
		return fmt.Errorf("%s: result cell is %v", name, c.Key)
	}
	if c.Errors > 0 {
		return fmt.Errorf("%s: run failed: %s", name, c.FirstError)
	}
	if v := c.Violations.Max(); v > 0 {
		return fmt.Errorf("%s: %.0f invariant violations", name, v)
	}
	if err := checkLedger(&c.Telemetry); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// checkReport is the correctness gate for one live cluster run.
func checkReport(rep *fleet.Report, j job) error {
	s := j.spec
	name := fmt.Sprintf("%s/%s/%s seed %d", s.Scenario, s.CostModel, s.Policy, s.Seed)
	switch {
	case len(rep.Stalled) > 0:
		return fmt.Errorf("%s: run failed: %s", name, rep.Stalled[0])
	case rep.Violations > 0:
		return fmt.Errorf("%s: %d invariant violations", name, rep.Violations)
	case rep.Nodes != j.nodes:
		return fmt.Errorf("%s: ran %d nodes, want %d", name, rep.Nodes, j.nodes)
	case rep.LostToCrash != rep.Recovered+rep.LostRecorded:
		return fmt.Errorf("%s: unbalanced crash ledger: %d lost != %d recovered + %d recorded",
			name, rep.LostToCrash, rep.Recovered, rep.LostRecorded)
	}
	if err := checkLedger(&rep.Telemetry); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// checkLedger checks the fleet crash-conservation ledger as the run's
// counters recorded it: every guarantee lost to a crash was either
// re-placed or recorded as a loss. Single-node runs have no fleet
// counters and pass trivially.
func checkLedger(s *telemetry.Snapshot) error {
	lost := s.CounterValue("fleet.lost_to_crash")
	rec := s.CounterValue("fleet.recovered")
	drop := s.CounterValue("fleet.lost_recorded")
	if lost != rec+drop {
		return fmt.Errorf("unbalanced crash ledger: fleet.lost_to_crash %d != fleet.recovered %d + fleet.lost_recorded %d",
			lost, rec, drop)
	}
	return nil
}

// gate compares every pass's digests against the first pass's.
type gate struct {
	want *digests
}

func (g *gate) observe(d digests) error {
	if g.want == nil {
		g.want = &d
		return nil
	}
	if d != *g.want {
		return fmt.Errorf("output digests changed between passes: results %s, manifest %q; first pass had results %s, manifest %q",
			d.Results, d.Manifest, g.want.Results, g.want.Manifest)
	}
	return nil
}
