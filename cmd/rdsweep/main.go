// rdsweep runs parallel Monte-Carlo sweeps over the Resource
// Distributor: a matrix of (scenario × switch-cost model × policy ×
// seed) simulations executed on a bounded worker pool, aggregated
// into per-cell loss rates, utilization, overhead fractions and
// admission-latency percentiles. The aggregate is independent of
// -workers: each run owns its single-goroutine kernel, and results
// are folded in a fixed order.
//
//	go run ./cmd/rdsweep -scenarios all -seeds 64 -workers 8
//	go run ./cmd/rdsweep -scenarios settop,overload -costs paper -json sweep.json
//	go run ./cmd/rdsweep -scenarios fault -seeds 32   # the fault-injection family
//	go run ./cmd/rdsweep -scenarios baseline -seeds 8 # the §3.4 comparator family
//	go run ./cmd/rdsweep -scenarios fleet -seeds 8    # the multi-node fleet family
//	go run ./cmd/rdsweep -list
//
// Cluster-manifest mode runs a single fleet-family spec with full span
// logging and writes its stitched rdtel/v2 cluster manifest (and,
// optionally, the per-node manifests it was stitched from):
//
//	go run ./cmd/rdsweep -scenarios fleet-crash -cluster-manifest cluster.json
//	go run ./cmd/rdsweep -scenarios fleet-crash -cluster-manifest cluster.json \
//	    -node-manifests dir/ -cluster-workers 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

func main() {
	var (
		scenariosFlag = flag.String("scenarios", "all", "comma-separated scenario names, 'all', or a family name ('fault', 'baseline', 'fleet') for every member scenario (see -list)")
		costsFlag     = flag.String("costs", strings.Join(sweep.DefaultCostModels(), ","), "comma-separated switch-cost models, or 'all'")
		policiesFlag  = flag.String("policies", "all", "comma-separated policy names, or 'all'; each scenario runs only those on its own policy axis (see -list)")
		seedsFlag     = flag.Int("seeds", 16, "number of seeds per cell")
		seedBase      = flag.Uint64("seed-base", 1, "first seed; runs use seed-base .. seed-base+seeds-1")
		workers       = flag.Int("workers", 0, "worker pool size; 0 = GOMAXPROCS (never affects results)")
		horizonMS     = flag.Int64("horizon-ms", 0, "simulated duration per run in ms; 0 = default (2000)")
		jsonPath      = flag.String("json", "", "write machine-readable aggregates to this file ('-' for stdout)")
		quiet         = flag.Bool("quiet", false, "suppress the human-readable table")
		list          = flag.Bool("list", false, "list scenarios with their policy axis and its values, cost models and policies, then exit")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile    = flag.String("memprofile", "", "write an allocation profile (alloc_objects/alloc_space) to this file")
		timingJSON    = flag.String("timing-json", "", "write wall-clock sweep throughput to this file as an rdperf metrics map (see cmd/rdperf)")

		clusterManifest = flag.String("cluster-manifest", "", "run one fleet-family spec with full span logging and write its stitched rdtel/v2 cluster manifest to this file ('-' for stdout); requires exactly one scenario, cost model, policy and seed ('all' policies picks the scenario's first placement)")
		nodeManifests   = flag.String("node-manifests", "", "with -cluster-manifest: also write the coordinator and per-node manifests into this directory (coord.manifest.json, node000.manifest.json, ...)")
		clusterWorkers  = flag.Int("cluster-workers", 1, "with -cluster-manifest: cluster node-advance pool size (never affects output bytes)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Record every allocation so small sweeps still produce a
		// usable alloc_objects profile.
		runtime.MemProfileRate = 1
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "rdsweep:", err)
			}
			f.Close()
		}()
	}

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range sweep.Scenarios() {
			fmt.Printf("  %-17s %s (%s: %s)\n", sc.Name, sc.Desc, sc.Axis, strings.Join(sc.Policies, ", "))
		}
		fmt.Printf("cost models: %s (default %s)\n",
			strings.Join(sweep.CostModelNames(), ", "), strings.Join(sweep.DefaultCostModels(), ", "))
		fmt.Printf("policies:    %s\n", strings.Join(sweep.AllPolicies(), ", "))
		return
	}

	if *clusterManifest != "" {
		if err := runClusterManifest(*scenariosFlag, *costsFlag, *policiesFlag,
			*seedBase, *horizonMS, *clusterWorkers, *clusterManifest, *nodeManifests); err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
		return
	}
	if *nodeManifests != "" {
		fmt.Fprintln(os.Stderr, "rdsweep: -node-manifests requires -cluster-manifest")
		os.Exit(2)
	}

	m := sweep.Matrix{
		Scenarios:  splitOrAll(*scenariosFlag),
		CostModels: splitOrAll(*costsFlag),
		Policies:   splitOrAll(*policiesFlag),
		Seeds:      sweep.SeedRange(*seedBase, *seedsFlag),
		Horizon:    ticks.FromMilliseconds(*horizonMS),
	}
	start := time.Now()
	res, err := sweep.Run(m, sweep.Options{Workers: *workers})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdsweep:", err)
		os.Exit(2)
	}

	if *timingJSON != "" {
		// Wall-clock throughput is deliberately a separate artifact
		// from the deterministic results JSON: -json output is
		// byte-identical across machines and worker counts, timing
		// never is. The key encodes the matrix so that comparisons
		// (cmd/rdperf compare) only ever line up like against like.
		key := fmt.Sprintf("rdsweep/scenarios=%s,seeds=%d,workers=%s,horizon=%dms",
			*scenariosFlag, *seedsFlag, workersLabel(*workers), *horizonMS)
		metrics := map[string]map[string]float64{key: {
			"cells":     float64(res.TotalRuns),
			"seconds":   elapsed.Seconds(),
			"cells/sec": float64(res.TotalRuns) / elapsed.Seconds(),
		}}
		if err := writeTimingJSON(*timingJSON, metrics); err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
	}

	if !*quiet {
		fmt.Printf("rdsweep: %d runs (workers=%s)\n\n", res.TotalRuns, workersLabel(*workers))
		fmt.Print(res.Table())
	}
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rdsweep:", err)
				os.Exit(2)
			}
			defer f.Close()
			out = f
		}
		if err := res.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "rdsweep:", err)
			os.Exit(2)
		}
	}
	if n := res.Errors(); n > 0 {
		fmt.Fprintf(os.Stderr, "rdsweep: %d run(s) failed\n", n)
		os.Exit(1)
	}
}

// runClusterManifest is the -cluster-manifest mode: one fleet-family
// run with full span logging, its stitched cluster manifest written to
// path and (optionally) the coordinator/per-node manifests it stitches
// into a directory.
func runClusterManifest(scenarios, costs, policies string, seed uint64, horizonMS int64, workers int, path, nodeDir string) error {
	scenario, err := singleValue("scenarios", splitOrAll(scenarios), "")
	if err != nil {
		return err
	}
	if costs == strings.Join(sweep.DefaultCostModels(), ",") {
		costs = "paper" // untouched -costs default: pick the paper model
	}
	cost, err := singleValue("costs", splitOrAll(costs), "paper")
	if err != nil {
		return err
	}
	firstPolicy := ""
	for _, sc := range sweep.Scenarios() {
		if sc.Name == scenario {
			firstPolicy = sc.Policies[0]
		}
	}
	if firstPolicy == "" {
		return fmt.Errorf("unknown scenario %q (see -list)", scenario)
	}
	policy, err := singleValue("policies", splitOrAll(policies), firstPolicy)
	if err != nil {
		return err
	}
	horizon := ticks.FromMilliseconds(horizonMS)
	if horizon <= 0 {
		horizon = sweep.DefaultHorizon
	}
	spec := sweep.RunSpec{
		Scenario: scenario, CostModel: cost, Policy: policy,
		Seed: seed, Horizon: horizon,
	}
	c, _, err := sweep.RunFleetCluster(spec, workers)
	if err != nil {
		return err
	}

	cluster, err := c.Manifest()
	if err != nil {
		return err
	}
	if err := writeManifestFile(path, cluster); err != nil {
		return err
	}
	if nodeDir == "" {
		return nil
	}
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		return err
	}
	coord, err := c.CoordManifest()
	if err != nil {
		return err
	}
	if err := writeManifestFile(filepath.Join(nodeDir, "coord.manifest.json"), coord); err != nil {
		return err
	}
	for i := 0; i < c.NodeCount(); i++ {
		nm, err := c.NodeManifest(i)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("node%03d.manifest.json", i)
		if err := writeManifestFile(filepath.Join(nodeDir, name), nm); err != nil {
			return err
		}
	}
	return nil
}

// singleValue reduces a split flag to the one value cluster mode
// needs: an explicit single entry wins, 'all'/empty falls back to
// fallback (or errors when there is none), multiple entries error.
func singleValue(name string, vals []string, fallback string) (string, error) {
	switch {
	case len(vals) == 1:
		return vals[0], nil
	case len(vals) == 0 && fallback != "":
		return fallback, nil
	case len(vals) == 0:
		return "", fmt.Errorf("-cluster-manifest needs exactly one value for -%s", name)
	default:
		return "", fmt.Errorf("-cluster-manifest needs exactly one value for -%s, got %d", name, len(vals))
	}
}

func writeManifestFile(path string, m *telemetry.Manifest) error {
	if path == "-" {
		return m.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitOrAll(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func workersLabel(n int) string {
	if n <= 0 {
		return "auto"
	}
	return strconv.Itoa(n)
}

func writeTimingJSON(path string, metrics map[string]map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metrics); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
