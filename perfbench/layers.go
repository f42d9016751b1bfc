package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// declared is what BENCHMARK.json promises: the workload names and
// the unit of every end-to-end and per-layer metric.
type declared struct {
	workloads          []string
	endToEnd, perLayer map[string]string
}

func readBenchmarkFile(path string) (declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return declared{}, err
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, w := range b.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}

// checkWorkloads confirms that BENCHMARK.json names the workloads of
// workloads.json, in the same order.
func (d declared) checkWorkloads(ws []workload) error {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	if strings.Join(d.workloads, ",") != strings.Join(names, ",") {
		return fmt.Errorf("BENCHMARK.json lists workloads %v, perfbench/workloads.json %v", d.workloads, names)
	}
	return nil
}

// checkMetrics confirms that a result carries exactly the declared
// metrics, each in its declared unit.
func checkMetrics(want map[string]string, got map[string]metric) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// layers fills the per-layer metrics of a traced run: counts read
// from the workload's own telemetry, host times of the benchmark's
// calls into each layer, and the fixed layer probes below. It returns
// the runs the probes attempted and the failures they found.
func layers(w *workload, workers int, seed uint64, m measurement, out map[string]metric) (int, []string) {
	count := func(name string, v int64) { out[name] = metric{float64(v), "count"} }

	var cells, reports, perDispatch []float64
	c := m.traced[0].counters
	dispatches := counterPrefixSum(&c, "sched.dispatch.")
	for _, p := range m.traced {
		var sum time.Duration
		for _, t := range p.cellTimes {
			cells = append(cells, ms(t))
			sum += t
		}
		if !w.Cluster {
			reports = append(reports, ms(p.report))
		}
		if dispatches > 0 {
			perDispatch = append(perDispatch, float64(sum.Nanoseconds())/float64(dispatches))
		}
	}
	out["sweep.cell_ms.p50"] = metric{percentile(cells, 50), "ms"}
	out["sweep.cell_ms.p99"] = metric{percentile(cells, 99), "ms"}
	count("sweep.cell_ms.n", int64(len(cells)))
	out["sched.ns_per_dispatch"] = metric{median(perDispatch), "ns"}

	count("sched.dispatches", dispatches)
	count("sched.rollovers", c.CounterValue("sched.period.rollovers"))
	count("sim.switches", c.CounterValue("sim.switch.voluntary")+c.CounterValue("sim.switch.involuntary"))
	accepted, rejected := c.CounterValue("rm.admit.accepted"), c.CounterValue("rm.admit.rejected")
	count("rm.admit_accepted", accepted)
	count("rm.admit_rejected", rejected)
	count("policy.consults", c.CounterValue("policy.box.consults"))
	probes := 0.0
	if placed := c.CounterValue("fleet.placed"); placed > 0 {
		probes = float64(accepted+rejected) / float64(placed)
	}
	out["fleet.probes_per_placement"] = metric{probes, "probes/placement"}
	count("fleet.migrations", c.CounterValue("fleet.migrations"))
	count("fleet.restarts", c.CounterValue("fleet.node_restarts"))
	count("fleet.flight_dumps", c.CounterValue("fleet.flight.dumps"))

	out["gc.cpu_share"] = metric{m.gc.share(), "share"}
	un, tr := median(m.untracedWall), median(m.tracedWall)
	out["trace.overhead_pct"] = metric{(tr - un) / un * 100, "%"}

	var failures []string
	if err := probeRM(seed, out); err != nil {
		failures = append(failures, err.Error())
	}
	out["core.epoch_us"] = metric{probeEpoch(seed), "us"}

	// Placement probe: identical fleet-crash specs under each placement,
	// each timed as a one-spec sweep.Run.
	pl := &workload{Name: "placement-probe", Entries: []entry{{
		Scenario: "fleet-crash", Nodes: 120, Costs: []string{"paper"},
		Policies: []string{sweep.PolicyFleetFirstFit, sweep.PolicyFleetLeastLoaded, sweep.PolicyFleetRRHash},
	}}}
	plJobs, err := pl.expand(sweep.SeedRange(seed*1000+1, 2), 2*ticks.PerSecond)
	if err != nil {
		return 0, append(failures, err.Error())
	}
	// A cluster workload encodes no sweep results of its own; its
	// sweep.report_ms is the probe's.
	byPolicy := map[string][]float64{}
	for round := 0; round < probeRounds; round++ {
		p := runPass(pl, plJobs, 1, true)
		failures = append(failures, p.failures...)
		for k, j := range plJobs {
			byPolicy[j.spec.Policy] = append(byPolicy[j.spec.Policy], ms(p.cellTimes[k]))
		}
		if w.Cluster {
			reports = append(reports, ms(p.report))
		}
	}
	rr := median(byPolicy[sweep.PolicyFleetRRHash])
	out["fleet.ff_minus_rr_ms"] = metric{median(byPolicy[sweep.PolicyFleetFirstFit]) - rr, "ms"}
	out["fleet.ll_minus_rr_ms"] = metric{median(byPolicy[sweep.PolicyFleetLeastLoaded]) - rr, "ms"}
	out["sweep.report_ms"] = metric{median(reports), "ms"}

	// Cluster probe: one traced fleet-crash cluster at one worker and
	// at every worker, with its stitched manifest.
	cl := &workload{Name: "cluster-probe", Cluster: true, Entries: []entry{{
		Scenario: "fleet-crash", Nodes: 120, Costs: []string{"paper"}, Policies: []string{sweep.PolicyFleetRRHash},
	}}}
	clJobs, err := cl.expand([]uint64{seed*1000 + 1}, 2*ticks.PerSecond)
	if err != nil {
		return 0, append(failures, err.Error())
	}
	var speedups, stitches, encodes []float64
	var all pass
	for round := 0; round < probeRounds; round++ {
		one := runPass(cl, clJobs, 1, true)
		all = runPass(cl, clJobs, workers, true)
		failures = append(failures, one.failures...)
		failures = append(failures, all.failures...)
		speedups = append(speedups, one.cellTimes[0].Seconds()/all.cellTimes[0].Seconds())
		stitches = append(stitches, ms(all.stitch))
		encodes = append(encodes, ms(all.encode))
	}
	out["fleet.parallel_speedup"] = metric{median(speedups), "x"}
	out["telemetry.stitch_ms"] = metric{median(stitches), "ms"}
	out["telemetry.encode_ms"] = metric{median(encodes), "ms"}
	count("telemetry.spans", all.spans)
	count("telemetry.manifest_bytes", all.manifestBytes)
	return probeRounds*len(plJobs) + 2*probeRounds*len(clJobs), failures
}

// probeRounds is how many times the placement and cluster probes run;
// they report medians.
const probeRounds = 3

// counterPrefixSum adds every counter whose name starts with prefix.
func counterPrefixSum(s *telemetry.Snapshot, prefix string) int64 {
	var n int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			n += c.Value
		}
	}
	return n
}

// probeCalls is how many calls each micro-probe times; it reports the
// median.
const probeCalls = 2000

// timeCalls times n calls of call, each followed by an untimed call of
// after when after is non-nil, and returns the median in microseconds.
func timeCalls(n int, call, after func() error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		err := call()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err == nil && after != nil {
			err = after()
		}
		if err != nil {
			return 0, err
		}
	}
	return median(us), nil
}

// fleetNode builds a Distributor configured like a fleet-crash node.
func fleetNode(seed uint64) *core.Distributor {
	costs := sim.PaperSwitchCosts()
	return core.New(core.Config{Seed: seed, SwitchCosts: &costs, InterruptReservePercent: 2})
}

// fleetTask is shaped like a fleet arrival: a two-level list with the
// top level between 8% and 35% and a half-rate floor, and a body that
// uses its whole grant and completes every period.
func fleetTask(i int) *task.Task {
	periods := []int64{5, 10, 20, 40}
	top := 8 + (i*7)%28
	return &task.Task{
		Name: fmt.Sprintf("fl%05d", i),
		List: task.UniformLevels(ticks.FromMilliseconds(periods[i%len(periods)]), "Fleet", top, (top+1)/2),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		}),
	}
}

// fillNode admits fleet-shaped tasks until one is refused and returns
// the admitted IDs and the refused task.
func fillNode(d *core.Distributor) ([]task.ID, *task.Task) {
	var ids []task.ID
	for i := 0; ; i++ {
		t := fleetTask(i)
		id, err := d.RequestAdmittance(t)
		if err != nil {
			return ids, t
		}
		ids = append(ids, id)
	}
}

// probeRM times RequestAdmittance on a node filled to capacity, both
// a refused probe and an accepted one (after one resident leaves),
// and a grant recompute (ReevaluatePolicy) at 4, 16 and 64 admitted
// multi-level tasks.
func probeRM(seed uint64, out map[string]metric) error {
	d := fleetNode(seed)
	ids, refused := fillNode(d)
	if len(ids) == 0 {
		return fmt.Errorf("rm probe: an empty node refused %s", refused.Name)
	}
	v, err := timeCalls(probeCalls, func() error {
		if _, err := d.RequestAdmittance(refused); err == nil {
			return fmt.Errorf("rm probe: a full node admitted %s", refused.Name)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	out["rm.admit_reject_us"] = metric{v, "us"}

	last := ids[len(ids)-1]
	list, err := d.Manager().ListOf(last)
	if err == nil {
		err = d.Terminate(last)
	}
	if err != nil {
		return fmt.Errorf("rm probe: %w", err)
	}
	var id task.ID
	v, err = timeCalls(probeCalls, func() (err error) {
		id, err = d.RequestAdmittance(&task.Task{Name: "probe", List: list, Body: task.Busy()})
		return err
	}, func() error { return d.Terminate(id) })
	if err != nil {
		return fmt.Errorf("rm probe: %w", err)
	}
	out["rm.admit_accept_us"] = metric{v, "us"}

	for _, n := range []int{4, 16, 64} {
		d := fleetNode(seed)
		for i := 0; i < n; i++ {
			if _, err := d.RequestAdmittance(&task.Task{
				Name: fmt.Sprintf("t%d", i),
				List: task.UniformLevels(270_000, "T", 90, 50, 20, 10, 5, 2, 1),
				Body: task.Busy(),
			}); err != nil {
				return fmt.Errorf("rm probe: %w", err)
			}
		}
		v, _ := timeCalls(probeCalls, func() error { d.ReevaluatePolicy(); return nil }, nil)
		out[fmt.Sprintf("rm.recompute_us.n%d", n)] = metric{v, "us"}
	}
	return nil
}

// probeEpoch times one 10 ms fleet epoch (Distributor.RunUntil) on a
// node filled to capacity with fleet-shaped tasks.
func probeEpoch(seed uint64) float64 {
	d := fleetNode(seed)
	fillNode(d)
	epoch := 10 * ticks.PerMillisecond
	advance := func() error { d.RunUntil(d.Now() + epoch); return nil }
	for i := 0; i < 10; i++ {
		advance()
	}
	v, _ := timeCalls(200, advance, nil)
	return v
}
