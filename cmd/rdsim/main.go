// Command rdsim runs a named Resource Distributor scenario in the
// virtual-time simulator and prints the grant set, schedule timeline,
// per-task accounting, and application quality.
//
// Usage:
//
//	rdsim -scenario settop -horizon 2s -gantt 100ms
//	rdsim -list
//
// Scenarios: settop (Table 4 / Figure 3), fig4, fig5, quiescent
// (§5.3), avsync (§5.4 phase lock).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

type scenario struct {
	name  string
	desc  string
	setup func(d *core.Distributor) (outcome, error)
	// reserve is the interrupt reserve percentage for the run.
	reserve int64
}

// outcome is what a scenario's setup leaves for after the run.
type outcome struct {
	quality func()       // prints application quality; nil for none
	err     func() error // the first failure of a scheduled step; nil for none
}

var scenarios = []scenario{
	{name: "settop", desc: "modem + 3D + MPEG (Table 4, Figure 3)", setup: func(d *core.Distributor) (outcome, error) {
		s, err := workload.Settop(d, 42)
		if err != nil {
			return outcome{}, err
		}
		return outcome{quality: func() {
			s.MPEG.Flush()
			fmt.Printf("  modem: %s\n", s.Modem.Stats().QualityString())
			fmt.Printf("  3d:    %s\n", s.G3D.Stats().QualityString())
			fmt.Printf("  mpeg:  %s\n", s.MPEG.Stats().QualityString())
		}}, nil
	}},
	{name: "fig4", desc: "four periodic threads + Sporadic Server (Figure 4)", setup: func(d *core.Distributor) (outcome, error) {
		_, err := workload.Figure4(d)
		return outcome{}, err
	}},
	{name: "fig5", desc: "overload staircase (Table 6, Figure 5)", reserve: 4, setup: func(d *core.Distributor) (outcome, error) {
		s, err := workload.Staircase(d, workload.Figure5Arrivals())
		if err != nil {
			return outcome{}, err
		}
		return outcome{err: s.Err}, nil
	}},
	{name: "quiescent", desc: "DVD + audio + telephone-answering modem (§5.3)", setup: func(d *core.Distributor) (outcome, error) {
		q, err := workload.Quiescent(d, 500*ms)
		if err != nil {
			return outcome{}, err
		}
		return outcome{err: q.Err, quality: func() {
			q.AC3.Flush()
			fmt.Printf("  ac3:   %s\n", q.AC3.Stats().QualityString())
			fmt.Printf("  modem: %s\n", q.Modem.Stats().QualityString())
		}}, nil
	}},
	{name: "avsync", desc: "display phase-locked to a drifting clock (§5.4)", setup: func(d *core.Distributor) (outcome, error) {
		l, err := workload.PhaseLockedDisplay(d, true)
		if err != nil {
			return outcome{}, err
		}
		if _, err := d.RequestAdmittance(&task.Task{
			Name: "worker", List: task.SingleLevel(10*ms, 3*ms, "W"), Body: task.PeriodicWork(3 * ms),
		}); err != nil {
			return outcome{}, err
		}
		return outcome{err: l.Err, quality: func() {
			fmt.Printf("  display: %d periods, max phase error %.1fus against the drifting clock\n",
				l.Periods, l.MaxPhaseError.MicrosecondsF())
		}}, nil
	}},
}

func main() {
	name := flag.String("scenario", "settop", "scenario to run")
	list := flag.Bool("list", false, "list scenarios")
	horizon := flag.Duration("horizon", 2*time.Second, "simulated run length")
	ganttWin := flag.Duration("gantt", 100*time.Millisecond, "timeline window rendered from t=0")
	cols := flag.Int("cols", 100, "timeline width in characters")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jsonOut := flag.String("json", "", "write the full trace as JSON to this file ('-' for stdout)")
	manifestOut := flag.String("manifest", "", "write the rdtel/v2 run manifest as JSON to this file ('-' for stdout)")
	build := flag.String("build", defaultBuild, "build identifier stamped into the manifest ('' to omit, for byte-comparable output)")
	flag.Parse()

	if *list {
		for _, s := range scenarios {
			fmt.Printf("%-10s %s\n", s.name, s.desc)
		}
		return
	}
	var sc *scenario
	for i := range scenarios {
		if scenarios[i].name == *name {
			sc = &scenarios[i]
		}
	}
	if sc == nil {
		fmt.Fprintf(os.Stderr, "rdsim: unknown scenario %q (try -list)\n", *name)
		os.Exit(2)
	}

	rec := trace.New()
	rec.Reserve(trace.HintForHorizon(ticks.FromDuration(*horizon)))
	var tel *telemetry.Set
	if *manifestOut != "" {
		tel = telemetry.NewSet()
	}
	d := core.New(core.Config{
		Seed:                    *seed,
		InterruptReservePercent: sc.reserve,
		Observer:                rec,
		Telemetry:               tel,
	})
	out, err := sc.setup(d)
	if err != nil {
		fatal(err)
	}
	d.Run(ticks.FromDuration(*horizon))
	if out.err != nil {
		if err := out.err(); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("scenario %q after %v simulated:\n\n", sc.name, *horizon)
	fmt.Println("grant set:")
	gs := d.Grants()
	for _, id := range gs.IDs() {
		fmt.Printf("  %v\n", gs[id])
	}
	fmt.Printf("  total %.1f%% of CPU\n\n", 100*gs.TotalFrac().Float())

	fmt.Printf("timeline, first %v:\n", *ganttWin)
	fmt.Println(rec.Gantt(0, ticks.FromDuration(*ganttWin), *cols))

	fmt.Println("per-task accounting:")
	for _, id := range rec.TaskIDs() {
		st, ok := d.Stats(id)
		if !ok {
			continue
		}
		fmt.Printf("  %-10s periods=%-5d misses=%-3d granted=%-10v used=%-10v overtime=%v\n",
			rec.NameOf(id), st.Periods, st.Misses, st.GrantedTicks, st.UsedTicks, st.OvertimeTicks)
	}

	ks := d.KernelStats()
	fmt.Printf("\nkernel: %d voluntary + %d involuntary switches (%.2f%% of CPU), idle %v\n",
		ks.VolSwitches, ks.InvolSwitches, 100*ks.SwitchOverheadFraction(), ks.IdleTicks)
	fmt.Printf("deadline misses: %d\n", rec.MissCount())

	if out.quality != nil {
		fmt.Println("\napplication quality:")
		out.quality()
	}

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := rec.WriteJSON(w); err != nil {
			fatal(err)
		}
		if *jsonOut != "-" {
			fmt.Printf("\ntrace written to %s\n", *jsonOut)
		}
	}

	if *manifestOut != "" {
		man := telemetry.NewManifest(*seed)
		if *build == defaultBuild {
			man.Build = telemetry.GitDescribe()
		} else {
			man.Build = *build
		}
		man.ConfigDigest = telemetry.ConfigDigest(struct {
			Scenario string
			Horizon  int64
			Seed     uint64
		}{sc.name, int64(ticks.FromDuration(*horizon)), *seed})
		man.HorizonTicks = ticks.FromDuration(*horizon)
		for _, id := range rec.TaskIDs() {
			man.Tasks = append(man.Tasks, telemetry.TaskInfo{ID: int64(id), Name: rec.NameOf(id)})
		}
		man.Fill(tel)
		man.DeriveTotals()
		w := os.Stdout
		if *manifestOut != "-" {
			f, err := os.Create(*manifestOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := man.WriteJSON(w); err != nil {
			fatal(err)
		}
		if *manifestOut != "-" {
			fmt.Printf("manifest written to %s\n", *manifestOut)
		}
	}
}

// defaultBuild is the -build sentinel meaning "ask git describe".
const defaultBuild = "auto"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdsim:", err)
	os.Exit(1)
}
