package sweep

// The fault scenario family: each member runs a small well-behaved
// media mix with the invariant checker armed, then injects one
// deterministic fault (internal/fault) and measures what the system
// does about it. The contract under test is the robustness half of
// the paper: a fault either stays contained, or every consequence is
// recorded — a deadline miss, a degradation decision, an event-log
// entry — and never a silent guarantee breach.
//
// All injector randomness comes from SplitSeed substreams at or above
// fault.StreamBase, so arming a fault never perturbs the unfaulted
// trace and every run replays byte-identically from its spec.
//
// The whole family can be requested at once: the matrix scenario name
// "fault" expands to every fault-* scenario.

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/task"
	"repro/internal/ticks"
)

// FaultFamily is the matrix scenario name that expands to every
// fault-* scenario.
const FaultFamily = "fault"

// scenarioFamilies lists the matrix names that expand to every
// scenario sharing the "<family>-" prefix.
var scenarioFamilies = []string{FaultFamily, BaselineFamily, FleetFamily}

// expandFamilies replaces family names in a scenario list with their
// members, preserving order. Unknown names pass through untouched so
// Specs still reports them precisely.
func expandFamilies(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		fam := false
		for _, f := range scenarioFamilies {
			if n == f {
				fam = true
				break
			}
		}
		if !fam {
			out = append(out, n)
			continue
		}
		prefix := n + "-"
		for _, sc := range scenarios {
			if len(sc.Name) > len(prefix) && sc.Name[:len(prefix)] == prefix {
				out = append(out, sc.Name)
			}
		}
	}
	return out
}

// faultBaseline admits the family's common well-behaved workload: a
// multi-level video decoder and audio, both using their full grant
// and completing each period. Multi-level lists give the Policy Box
// something to shed when a fault forces degradation.
func (e *env) faultBaseline() error {
	if _, err := e.RequestAdmittance(&task.Task{
		Name: "video",
		List: task.UniformLevels(10*ms, "Video", 30, 20, 10),
		Body: task.BusyYield(),
	}); err != nil {
		return err
	}
	if _, err := e.RequestAdmittance(&task.Task{
		Name: "audio",
		List: task.UniformLevels(20*ms, "Audio", 10, 5),
		Body: task.BusyYield(),
	}); err != nil {
		return err
	}
	return nil
}

// runFault is the family's shared harness: arm the checker, start
// the system, admit the baseline, arm the injectors, run, and report
// recorded misses over total periods as the quality figure.
func (e *env) runFault(cfg core.Config, injs ...fault.Injector) error {
	e.withInvariants()
	d := e.start(cfg)
	if err := e.faultBaseline(); err != nil {
		return err
	}
	if err := fault.ArmAll(d, e.spec.Seed, &e.flog, injs...); err != nil {
		return err
	}
	d.Run(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		var periods int64
		for _, a := range e.admits {
			if st, ok := d.Stats(a.id); ok {
				periods += st.Periods
			}
		}
		m.Loss = e.pr.misses
		m.Opportunities = periods
	}
	return nil
}

func runFaultOverrun(e *env) error {
	return e.runFault(core.Config{},
		fault.Overrun{TaskName: "rogue", Period: 15 * ms, CPU: 2 * ms, At: 40 * ms})
}

func runFaultCrash(e *env) error {
	return e.runFault(core.Config{},
		fault.CrashRestart{TaskName: "flaky", Period: 10 * ms, CPU: 2 * ms, At: 30 * ms,
			Cycles: 3, MeanUp: 40 * ms, MeanDown: 10 * ms})
}

func runFaultStorm(e *env) error {
	e.withInvariants()
	d := e.start(core.Config{InterruptReservePercent: 4})
	d.EnableOverloadGovernor(10 * ms)
	if err := e.faultBaseline(); err != nil {
		return err
	}
	if err := fault.ArmAll(d, e.spec.Seed, &e.flog,
		fault.Storm{At: 50 * ms, Bursts: 4, Every: 20 * ms, Count: 16,
			Service: 500 * ticks.PerMicrosecond}); err != nil {
		return err
	}
	d.Run(e.spec.Horizon)
	e.quality = func(m *RunMetrics) {
		var periods int64
		for _, a := range e.admits {
			if st, ok := d.Stats(a.id); ok {
				periods += st.Periods
			}
		}
		m.Loss = e.pr.misses
		m.Opportunities = periods
	}
	return nil
}

func runFaultJitter(e *env) error {
	return e.runFault(core.Config{},
		fault.Jitter{At: 30 * ms, MaxLate: 200 * ticks.PerMicrosecond,
			Coalesce: 50 * ticks.PerMicrosecond})
}

func runFaultPolicy(e *env) error {
	return e.runFault(core.Config{},
		fault.PolicyCorrupt{At: 60 * ms},
		fault.PolicyCorrupt{At: 120 * ms},
		fault.PolicyCorrupt{At: 180 * ms})
}
