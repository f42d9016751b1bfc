package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

const smokeHorizon = 100 * ticks.PerMillisecond

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload(ws, name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// smokeJob is the first job of a workload at the smoke horizon.
func smokeJob(t *testing.T, name string) job {
	t.Helper()
	w := mustWorkload(t, name)
	jobs, err := w.expand(w.seedsFor(1)[:1], smokeHorizon)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

func mustDeclared(t *testing.T) declared {
	t.Helper()
	d, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if err := mustDeclared(t).checkWorkloads(ws); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeAllWorkloads runs every workload's frozen guard and node
// check, then one seed of every cell at a short horizon on two workers
// (traced) and on one, and requires clean, identical outputs.
func TestSmokeAllWorkloads(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		w := &ws[i]
		t.Run(w.Name, func(t *testing.T) {
			if _, err := w.frozen(1); err != nil {
				t.Fatal(err)
			}
			if err := w.checkNodes(1); err != nil {
				t.Fatal(err)
			}
			jobs, err := w.expand(w.seedsFor(1)[:1], smokeHorizon)
			if err != nil {
				t.Fatal(err)
			}
			two, one := runPass(w, jobs, 2, true), runPass(w, jobs, 1, false)
			for _, p := range []pass{two, one} {
				for _, f := range p.failures {
					t.Error(f)
				}
			}
			if two.digests != one.digests {
				t.Fatalf("digests differ between 2 workers %+v and 1 worker %+v", two.digests, one.digests)
			}
			if w.Cluster && (two.Manifest == "" || two.spans == 0) {
				t.Fatalf("cluster pass encoded no manifest: %+v", two)
			}
			if len(two.cellTimes) != len(jobs) {
				t.Fatalf("traced pass timed %d of %d jobs", len(two.cellTimes), len(jobs))
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs a minimal traced measurement and
// the layer probes, and requires every per-layer metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w := mustWorkload(t, "fleet-balanced")
	jobs, err := w.expand(w.seedsFor(1)[:1], smokeHorizon)
	if err != nil {
		t.Fatal(err)
	}
	m := measure(w, jobs, 2, time.Nanosecond, true, func() {})
	if m.failed > 0 {
		t.Fatalf("%d failures", m.failed)
	}
	out := map[string]metric{}
	if _, failures := layers(w, 2, 1, m, out); len(failures) > 0 {
		t.Fatal(failures)
	}
	if err := checkMetrics(mustDeclared(t).perLayer, out); err != nil {
		t.Fatal(err)
	}
}

func TestGateRejectsFlippedByte(t *testing.T) {
	j := smokeJob(t, "node-sweep")
	r, err := runSpec(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) digests {
		s := sha256.Sum256(b)
		return digests{Results: hex.EncodeToString(s[:])}
	}
	// The pass digests exactly the results JSON.
	w := mustWorkload(t, "node-sweep")
	if p := runPass(w, []job{j}, 1, false); p.digests != digest(buf.Bytes()) {
		t.Fatalf("pass digest %s is not the results JSON's %s", p.Results, digest(buf.Bytes()).Results)
	}
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/2] ^= 1
	var g gate
	if err := g.observe(digest(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := g.observe(digest(buf.Bytes())); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	if err := g.observe(digest(flipped)); err == nil {
		t.Fatal("gate accepted results JSON with one byte flipped")
	}
}

func TestCheckResultRejectsRunError(t *testing.T) {
	j := smokeJob(t, "node-sweep")
	r, err := runSpec(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(r, j); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	c := r.Cells()[0]
	c.Errors, c.FirstError = 1, "panic: injected"
	if err := checkResult(r, j); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("run carrying Err accepted: %v", err)
	}
}

func TestCheckResultRejectsViolation(t *testing.T) {
	j := smokeJob(t, "node-sweep")
	r, err := runSpec(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Cells()[0].Violations.Add(1)
	if err := checkResult(r, j); err == nil {
		t.Fatal("run with an invariant violation accepted")
	}
}

// bumpCounter adds one to a counter of s, creating it if absent.
func bumpCounter(s *telemetry.Snapshot, name string) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			s.Counters[i].Value++
			return
		}
	}
	s.Counters = append(s.Counters, telemetry.CounterSnap{Name: name, Value: 1})
}

func TestCheckRejectsUnbalancedLedger(t *testing.T) {
	j := smokeJob(t, "fleet-crash-ff")
	r, err := runSpec(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(r, j); err != nil {
		t.Fatalf("clean fleet run rejected: %v", err)
	}
	bumpCounter(&r.Cells()[0].Telemetry, "fleet.lost_to_crash")
	if err := checkResult(r, j); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("unbalanced ledger accepted: %v", err)
	}

	cj := smokeJob(t, "fleet-trace")
	_, rep, err := sweep.RunFleetCluster(cj.spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(rep, cj); err != nil {
		t.Fatalf("clean cluster run rejected: %v", err)
	}
	rep.LostToCrash++
	if err := checkReport(rep, cj); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("unbalanced cluster report accepted: %v", err)
	}
	rep.LostToCrash--
	bumpCounter(&rep.Telemetry, "fleet.recovered")
	if err := checkReport(rep, cj); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("unbalanced cluster counters accepted: %v", err)
	}
}

func TestFrozenGuard(t *testing.T) {
	cases := []struct {
		name string
		edit func(w *workload)
		want string
	}{
		{"family name", func(w *workload) { w.Entries[0].Scenario = sweep.FaultFamily }, "family"},
		{"all", func(w *workload) { w.Entries[0].Scenario = "all" }, "family"},
		{"mislabelled policy", func(w *workload) {
			w.Entries[1].Policies = append(w.Entries[1].Policies, sweep.PolicyBaselineCFS)
		}, "does not consume"},
		{"placement on a single node", func(w *workload) {
			w.Entries[1].Policies = []string{sweep.PolicyFleetLeastLoaded}
		}, "does not consume"},
		{"unsupported policy", func(w *workload) {
			w.Entries[0].Policies = []string{sweep.PolicyAudioFirst}
		}, "zero runs"},
		{"run count", func(w *workload) { w.Runs++ }, "frozen at"},
		{"cell count", func(w *workload) { w.Entries = w.Entries[1:] }, "frozen at"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := *mustWorkload(t, "node-sweep")
			w.Entries = append([]entry(nil), w.Entries...)
			for i := range w.Entries {
				w.Entries[i].Policies = append([]string(nil), w.Entries[i].Policies...)
			}
			tc.edit(&w)
			_, err := w.frozen(1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("frozen() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckNodesRejectsWrongCount(t *testing.T) {
	for _, tc := range []struct{ workload string }{{"node-sweep"}, {"fleet-crash-ff"}} {
		w := *mustWorkload(t, tc.workload)
		w.Entries = append([]entry(nil), w.Entries[0])
		w.Entries[0].Nodes++
		if err := w.checkNodes(1); err == nil {
			t.Errorf("%s: node count %d accepted", tc.workload, w.Entries[0].Nodes)
		}
	}
}
