package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sweep"
	"repro/internal/ticks"
)

// workloads.json is the frozen benchmark matrix. Each workload is an
// explicit list of (scenario, cost model, policy) cells run at one
// horizon over a fixed number of seeds, with the expected cell and
// run counts written out so that a change to the scenario registry
// cannot silently change the benchmark's work.
//
//go:embed workloads.json
var frozenJSON []byte

// entry is one scenario of a workload with the cost models and
// policies it is run under. Nodes is the scenario's node count, the
// multiplier from simulated seconds to node-seconds.
type entry struct {
	Scenario string   `json:"scenario"`
	Nodes    int      `json:"nodes"`
	Costs    []string `json:"costs"`
	Policies []string `json:"policies"`
}

// workload is one frozen benchmark workload. A Cluster workload runs
// each spec as a live cluster with its full span log and stitched
// manifest (sweep.RunFleetCluster); the others run each spec as a
// one-spec sweep.Run.
type workload struct {
	Name      string  `json:"name"`
	HorizonMS int64   `json:"horizon_ms"`
	Seeds     int     `json:"seeds"`
	Cells     int     `json:"cells"`
	Runs      int     `json:"runs"`
	Cluster   bool    `json:"cluster"`
	Entries   []entry `json:"entries"`
}

func (w *workload) horizon() ticks.Ticks { return ticks.FromMilliseconds(w.HorizonMS) }

// job is one simulation run of a workload.
type job struct {
	spec  sweep.RunSpec
	nodes int
}

// nodeSeconds is the simulated node time one run covers.
func (j job) nodeSeconds() float64 {
	return float64(j.nodes) * j.spec.Horizon.Seconds()
}

func loadWorkloads() ([]workload, error) {
	var f struct {
		Version   int        `json:"version"`
		Workloads []workload `json:"workloads"`
	}
	dec := json.NewDecoder(bytes.NewReader(frozenJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("workloads.json: version %d, want 1", f.Version)
	}
	return f.Workloads, nil
}

func findWorkload(ws []workload, name string) (*workload, error) {
	names := make([]string, len(ws))
	for i := range ws {
		if ws[i].Name == name {
			return &ws[i], nil
		}
		names[i] = ws[i].Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Policy axes of the registry. A scenario is only benchmarked under
// the axis it really consumes: RD scenarios under the policy-box
// variants, baseline-* under the comparators and streamer allocators
// (plus the RD itself as "invent"), fleet-* under the placements.
// Anything else is a mislabelled cell that repeats another cell's
// work under a different name.
var (
	rdPolicies         = []string{sweep.PolicyInvent, sweep.PolicyAudioFirst, sweep.PolicyVideoFirst}
	comparatorPolicies = []string{sweep.PolicyInvent, sweep.PolicyBaselineFairShare, sweep.PolicyBaselineLottery,
		sweep.PolicyBaselineStride, sweep.PolicyBaselineCFS, sweep.PolicyStreamerMaxMin, sweep.PolicyStreamerMaxThru}
	placementPolicies = []string{sweep.PolicyFleetFirstFit, sweep.PolicyFleetLeastLoaded, sweep.PolicyFleetRRHash}
)

func policyAxis(scenario string) []string {
	switch {
	case strings.HasPrefix(scenario, sweep.FleetFamily+"-"):
		return placementPolicies
	case strings.HasPrefix(scenario, sweep.BaselineFamily+"-"):
		return comparatorPolicies
	default:
		return rdPolicies
	}
}

// expand turns the workload into its run list for the given seeds and
// horizon, in a fixed order: entry, cost model, policy, seed. Every
// cell goes through sweep's own matrix expansion, which must return
// exactly one run per seed for that cell and nothing else; family
// names, "all" and cells outside the scenario's policy axis are
// refused.
func (w *workload) expand(seeds []uint64, horizon ticks.Ticks) ([]job, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("workload %s: no seeds", w.Name)
	}
	var jobs []job
	for _, e := range w.Entries {
		if e.Scenario == "all" || e.Scenario == sweep.FaultFamily ||
			e.Scenario == sweep.BaselineFamily || e.Scenario == sweep.FleetFamily {
			return nil, fmt.Errorf("workload %s: %q is a family, not a scenario", w.Name, e.Scenario)
		}
		if e.Nodes < 1 {
			return nil, fmt.Errorf("workload %s: %s has %d nodes", w.Name, e.Scenario, e.Nodes)
		}
		for _, cm := range e.Costs {
			for _, pol := range e.Policies {
				if !slices.Contains(policyAxis(e.Scenario), pol) {
					return nil, fmt.Errorf("workload %s: %s does not consume policy %q", w.Name, e.Scenario, pol)
				}
				m := sweep.Matrix{
					Scenarios:  []string{e.Scenario},
					CostModels: []string{cm},
					Policies:   []string{pol},
					Seeds:      seeds,
					Horizon:    horizon,
				}
				specs, err := m.Specs()
				if err != nil {
					return nil, fmt.Errorf("workload %s: %w", w.Name, err)
				}
				if len(specs) != len(seeds) {
					return nil, fmt.Errorf("workload %s: %s/%s/%s expands to %d runs, want %d",
						w.Name, e.Scenario, cm, pol, len(specs), len(seeds))
				}
				for _, s := range specs {
					if s.Scenario != e.Scenario || s.CostModel != cm || s.Policy != pol {
						return nil, fmt.Errorf("workload %s: %s/%s/%s expands to %s/%s/%s",
							w.Name, e.Scenario, cm, pol, s.Scenario, s.CostModel, s.Policy)
					}
					s.Index = len(jobs)
					jobs = append(jobs, job{spec: s, nodes: e.Nodes})
				}
			}
		}
	}
	return jobs, nil
}

// seedsFor derives the workload's seed list from the benchmark seed.
func (w *workload) seedsFor(seed uint64) []uint64 {
	return sweep.SeedRange(seed*1000+1, w.Seeds)
}

// frozen expands the workload at its frozen size and checks the
// result against the recorded cell and run counts.
func (w *workload) frozen(seed uint64) ([]job, error) {
	jobs, err := w.expand(w.seedsFor(seed), w.horizon())
	if err != nil {
		return nil, err
	}
	cells := 0
	for _, e := range w.Entries {
		cells += len(e.Costs) * len(e.Policies)
	}
	if cells != w.Cells || len(jobs) != w.Runs || w.Cells*w.Seeds != w.Runs {
		return nil, fmt.Errorf("workload %s: expands to %d cells and %d runs, frozen at %d cells and %d runs",
			w.Name, cells, len(jobs), w.Cells, w.Runs)
	}
	return jobs, nil
}

// checkNodes confirms each scenario's declared node count against the
// program: a fleet scenario's cluster report names its size, and any
// other scenario must refuse to run as a cluster. It runs every
// scenario once at a short horizon.
func (w *workload) checkNodes(seed uint64) error {
	for _, e := range w.Entries {
		spec := sweep.RunSpec{
			Scenario: e.Scenario, CostModel: e.Costs[0], Policy: e.Policies[0],
			Seed: seed, Horizon: 20 * ticks.PerMillisecond,
		}
		_, rep, err := sweep.RunFleetCluster(spec, 1)
		switch {
		case e.Nodes == 1 && err == nil:
			return fmt.Errorf("workload %s: %s runs as a %d-node cluster, declared single-node", w.Name, e.Scenario, rep.Nodes)
		case e.Nodes > 1 && err != nil:
			return fmt.Errorf("workload %s: %s: %w", w.Name, e.Scenario, err)
		case e.Nodes > 1 && rep.Nodes != e.Nodes:
			return fmt.Errorf("workload %s: %s runs %d nodes, declared %d", w.Name, e.Scenario, rep.Nodes, e.Nodes)
		}
	}
	return nil
}
