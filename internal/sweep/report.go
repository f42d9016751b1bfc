package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// admission-latency histogram geometry, shared by every cell so
// Histogram.Merge always sees matching grids: 0-120 ms in 5 ms bins.
const (
	admHistLo    = 0
	admHistWidth = 5
	admHistBins  = 24
)

// Key identifies one aggregation cell of the matrix.
type Key struct {
	Scenario  string
	CostModel string
	Policy    string
}

// Cell aggregates every run of one (scenario, cost model, policy)
// combination across seeds.
type Cell struct {
	Key

	Runs           int
	Errors         int
	FirstError     string
	Denied         int64
	FaultsInjected int64 // fault events fired by armed injectors

	StreamerBytes int64 // DMA payload completed, summed over runs

	// Fleet-layer totals (fleet-* cells; zero elsewhere).
	Spillovers   int64
	Retries      int64
	Migrations   int64
	NodeRestarts int64
	FlightDumps  int64 // black-box flight-recorder dumps

	Misses         metrics.Summary // deadline misses per run
	Completed      metrics.Summary // completed periods per run (comparator family)
	LossRate       metrics.Summary // unplanned loss / opportunities per run
	Utilization    metrics.Summary
	SwitchOverhead metrics.Summary
	InterruptLoad  metrics.Summary
	Violations     metrics.Summary // invariant-checker breaches per run
	Degradations   metrics.Summary // recorded degradation decisions per run
	AdmissionMS    metrics.Summary // per admitted task, pooled over runs
	AdmissionHist  *metrics.Histogram
	RecoveryMS     metrics.Summary // crash→re-placement latency, pooled over runs

	// Telemetry is the cell's merged instrument snapshot: per-run
	// registries folded in spec order (counters add, histogram buckets
	// add, gauge high-water marks take the max), so the result is
	// worker-count invariant like every other aggregate.
	Telemetry telemetry.Snapshot

	// firstSeed/firstHorizon identify the cell's earliest contributing
	// run (in spec order) for the embedded manifest.
	firstSeed    uint64
	firstHorizon ticks.Ticks
	seeded       bool
}

func newCell(k Key) *Cell {
	return &Cell{Key: k, AdmissionHist: metrics.NewHistogram(admHistLo, admHistWidth, admHistBins)}
}

// add folds one run into the cell. Failed runs count toward Runs and
// Errors but contribute no measurements.
func (c *Cell) add(spec RunSpec, r RunMetrics) {
	c.Runs++
	if r.Err != "" {
		c.Errors++
		if c.FirstError == "" {
			c.FirstError = r.Err
		}
		return
	}
	if !c.seeded {
		c.firstSeed, c.firstHorizon, c.seeded = spec.Seed, spec.Horizon, true
	}
	c.Telemetry.Merge(r.Telemetry)
	c.Denied += r.Denied
	c.FaultsInjected += r.FaultsInjected
	c.StreamerBytes += r.StreamerBytes
	c.Spillovers += r.Spillovers
	c.Retries += r.Retries
	c.Migrations += r.Migrations
	c.NodeRestarts += r.NodeRestarts
	c.FlightDumps += r.FlightDumps
	c.RecoveryMS.Merge(&r.RecoveryMS)
	c.Misses.Add(float64(r.Misses))
	c.Completed.Add(float64(r.CompletedPeriods))
	c.LossRate.Add(r.LossRate())
	c.Utilization.Add(r.Utilization)
	c.SwitchOverhead.Add(r.SwitchOverhead)
	c.InterruptLoad.Add(r.InterruptLoad)
	c.Violations.Add(float64(r.Violations))
	c.Degradations.Add(float64(r.Degradations))
	for _, v := range r.AdmissionMS {
		c.AdmissionMS.Add(v)
		c.AdmissionHist.Add(v)
	}
}

// merge folds another cell (same key) into c, preserving o's sample
// order after c's own.
func (c *Cell) merge(o *Cell) {
	c.Runs += o.Runs
	c.Errors += o.Errors
	if c.FirstError == "" {
		c.FirstError = o.FirstError
	}
	c.Denied += o.Denied
	c.FaultsInjected += o.FaultsInjected
	if !c.seeded && o.seeded {
		c.firstSeed, c.firstHorizon, c.seeded = o.firstSeed, o.firstHorizon, true
	}
	c.Telemetry.Merge(o.Telemetry)
	c.StreamerBytes += o.StreamerBytes
	c.Spillovers += o.Spillovers
	c.Retries += o.Retries
	c.Migrations += o.Migrations
	c.NodeRestarts += o.NodeRestarts
	c.FlightDumps += o.FlightDumps
	c.RecoveryMS.Merge(&o.RecoveryMS)
	c.Misses.Merge(&o.Misses)
	c.Completed.Merge(&o.Completed)
	c.LossRate.Merge(&o.LossRate)
	c.Utilization.Merge(&o.Utilization)
	c.SwitchOverhead.Merge(&o.SwitchOverhead)
	c.InterruptLoad.Merge(&o.InterruptLoad)
	c.Violations.Merge(&o.Violations)
	c.Degradations.Merge(&o.Degradations)
	c.AdmissionMS.Merge(&o.AdmissionMS)
	c.AdmissionHist.Merge(o.AdmissionHist)
}

// manifest builds the cell's embedded rdtel/v2 manifest. Seed and
// horizon come from the cell's first contributing run in spec order;
// the config digest hashes the cell key; the totals are read straight
// out of the merged counter snapshot. A cell with no successful runs
// has no manifest.
func (c *Cell) manifest() *telemetry.Manifest {
	if !c.seeded {
		return nil
	}
	m := telemetry.NewManifest(c.firstSeed)
	m.ConfigDigest = telemetry.ConfigDigest(c.Key)
	m.HorizonTicks = c.firstHorizon
	m.Metrics = c.Telemetry
	m.DeriveTotals()
	return m
}

// Result is a sweep's aggregated output: cells in first-appearance
// (i.e. matrix-expansion) order.
type Result struct {
	TotalRuns int
	cells     []*Cell
	index     map[Key]*Cell
}

func newResult() *Result { return &Result{index: make(map[Key]*Cell)} }

func (r *Result) cell(k Key) *Cell {
	if c, ok := r.index[k]; ok {
		return c
	}
	c := newCell(k)
	r.cells = append(r.cells, c)
	r.index[k] = c
	return c
}

func (r *Result) add(spec RunSpec, m RunMetrics) {
	r.cell(Key{spec.Scenario, spec.CostModel, spec.Policy}).add(spec, m)
}

// Merge folds o into r cell by cell, in o's cell order. Merging
// partial results in a fixed order is what makes the aggregate
// independent of how runs were distributed over workers.
func (r *Result) Merge(o *Result) {
	r.TotalRuns += o.TotalRuns
	for _, oc := range o.cells {
		r.cell(oc.Key).merge(oc)
	}
}

// Cells returns the aggregation cells in matrix-expansion order.
func (r *Result) Cells() []*Cell { return append([]*Cell(nil), r.cells...) }

// Errors reports the total failed runs.
func (r *Result) Errors() int {
	n := 0
	for _, c := range r.cells {
		n += c.Errors
	}
	return n
}

// Table renders the human-readable summary: one row per cell.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-10s %-12s %5s %4s %8s %8s %7s %7s %7s %6s %6s %8s %8s\n",
		"scenario", "costs", "policy", "runs", "err",
		"loss%", "misses", "util%", "sw%", "irq%", "viol", "degr", "adm p50", "adm p99")
	for _, c := range r.cells {
		fmt.Fprintf(&b, "%-13s %-10s %-12s %5d %4d %8.3f %8.2f %7.2f %7.3f %7.3f %6.2f %6.2f %7.1fms %7.1fms\n",
			c.Scenario, c.CostModel, c.Policy, c.Runs, c.Errors,
			c.LossRate.Mean()*100, c.Misses.Mean(),
			c.Utilization.Mean()*100, c.SwitchOverhead.Mean()*100, c.InterruptLoad.Mean()*100,
			c.Violations.Mean(), c.Degradations.Mean(),
			c.AdmissionMS.Percentile(50), c.AdmissionMS.Percentile(99))
	}
	// Fleet supplement: one row per cell that recorded fleet-layer
	// activity (spillover, retries, migrations, node restarts, or
	// crash recoveries).
	fleetRows := false
	for _, c := range r.cells {
		if c.Spillovers+c.Retries+c.Migrations+c.NodeRestarts > 0 || c.RecoveryMS.N() > 0 {
			fleetRows = true
			break
		}
	}
	if fleetRows {
		fmt.Fprintf(&b, "\n%-13s %-10s %-12s %8s %8s %8s %8s %9s %9s\n",
			"fleet", "costs", "policy", "spill", "retries", "migrate", "restart", "rec p50", "rec p99")
		for _, c := range r.cells {
			if c.Spillovers+c.Retries+c.Migrations+c.NodeRestarts == 0 && c.RecoveryMS.N() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-13s %-10s %-12s %8d %8d %8d %8d %8.1fms %8.1fms\n",
				c.Scenario, c.CostModel, c.Policy,
				c.Spillovers, c.Retries, c.Migrations, c.NodeRestarts,
				c.RecoveryMS.Percentile(50), c.RecoveryMS.Percentile(99))
		}
	}
	for _, c := range r.cells {
		if c.FirstError != "" {
			fmt.Fprintf(&b, "! %s/%s/%s: %d failed run(s); first: %s\n",
				c.Scenario, c.CostModel, c.Policy, c.Errors, c.FirstError)
		}
	}
	return b.String()
}

// --- machine-readable output ---

// JSON schema version tag; bump on incompatible changes.
// v2 added invariant_violations, degradations and faults_injected.
// v3 added the per-cell rdtel/v1 telemetry manifest.
// v4 added completed_periods and streamer_bytes for the baseline-*
// comparator family.
// v5 added the fleet-* counters (fleet_spillovers, fleet_retries,
// fleet_migrations, fleet_node_restarts) and the pooled
// fleet_recovery_latency_ms summary.
// v6 added fleet_flight_dumps, the black-box flight-recorder dump
// count, and the per-cell manifests moved to the rdtel/v2 schema.
const SchemaVersion = "rdsweep/v6"

type summaryJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

func summarize(s *metrics.Summary) summaryJSON {
	return summaryJSON{
		N:      s.N(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Min:    s.Min(),
		P50:    s.Percentile(50),
		P90:    s.Percentile(90),
		P99:    s.Percentile(99),
		Max:    s.Max(),
	}
}

type histJSON struct {
	Lo     float64 `json:"lo"`
	Width  float64 `json:"width"`
	N      int64   `json:"n"`
	Counts []int64 `json:"counts"`
}

type cellJSON struct {
	Scenario       string `json:"scenario"`
	CostModel      string `json:"cost_model"`
	Policy         string `json:"policy"`
	Runs           int    `json:"runs"`
	Errors         int    `json:"errors"`
	FirstError     string `json:"first_error,omitempty"`
	Denied         int64  `json:"denied_admissions"`
	FaultsInjected int64  `json:"faults_injected"`
	StreamerBytes  int64  `json:"streamer_bytes"`
	Spillovers     int64  `json:"fleet_spillovers"`
	Retries        int64  `json:"fleet_retries"`
	Migrations     int64  `json:"fleet_migrations"`
	NodeRestarts   int64  `json:"fleet_node_restarts"`
	FlightDumps    int64  `json:"fleet_flight_dumps"`

	Misses         summaryJSON `json:"misses_per_run"`
	Completed      summaryJSON `json:"completed_periods"`
	LossRate       summaryJSON `json:"unplanned_loss_rate"`
	Utilization    summaryJSON `json:"utilization"`
	SwitchOverhead summaryJSON `json:"switch_overhead"`
	InterruptLoad  summaryJSON `json:"interrupt_load"`
	Violations     summaryJSON `json:"invariant_violations"`
	Degradations   summaryJSON `json:"degradations"`
	AdmissionMS    summaryJSON `json:"admission_latency_ms"`
	AdmissionHist  histJSON    `json:"admission_latency_hist"`
	RecoveryMS     summaryJSON `json:"fleet_recovery_latency_ms"`

	// Manifest is the cell's rdtel/v2 run manifest: the merged
	// instrument snapshot plus headline totals derived from it.
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
}

type resultJSON struct {
	Schema    string     `json:"schema"`
	TotalRuns int        `json:"total_runs"`
	Cells     []cellJSON `json:"cells"`
}

// WriteJSON serializes the result. The output carries no timestamps
// or host details and the cells are emitted in deterministic order,
// so two equivalent sweeps produce byte-identical files — the
// worker-invariance contract is checked with plain cmp/bytes.Equal.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{Schema: SchemaVersion, TotalRuns: r.TotalRuns}
	for _, c := range r.cells {
		out.Cells = append(out.Cells, cellJSON{
			Scenario:       c.Scenario,
			CostModel:      c.CostModel,
			Policy:         c.Policy,
			Runs:           c.Runs,
			Errors:         c.Errors,
			FirstError:     c.FirstError,
			Denied:         c.Denied,
			FaultsInjected: c.FaultsInjected,
			StreamerBytes:  c.StreamerBytes,
			Spillovers:     c.Spillovers,
			Retries:        c.Retries,
			Migrations:     c.Migrations,
			NodeRestarts:   c.NodeRestarts,
			FlightDumps:    c.FlightDumps,
			Misses:         summarize(&c.Misses),
			Completed:      summarize(&c.Completed),
			LossRate:       summarize(&c.LossRate),
			Utilization:    summarize(&c.Utilization),
			SwitchOverhead: summarize(&c.SwitchOverhead),
			InterruptLoad:  summarize(&c.InterruptLoad),
			Violations:     summarize(&c.Violations),
			Degradations:   summarize(&c.Degradations),
			AdmissionMS:    summarize(&c.AdmissionMS),
			RecoveryMS:     summarize(&c.RecoveryMS),
			AdmissionHist: histJSON{
				Lo:     c.AdmissionHist.Lo,
				Width:  c.AdmissionHist.Width,
				N:      c.AdmissionHist.N(),
				Counts: c.AdmissionHist.Counts,
			},
			Manifest: c.manifest(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
