package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// expSwitch reproduces §6.1: the voluntary/involuntary context-switch
// cost distributions, and the "about 0.7% of the CPU" estimate for a
// tuned MPEG+AC3 system doing ~300 switches per second.
func expSwitch() {
	fmt.Println("paper: voluntary   min 11.5, median 18.3, mean 20.7 us")
	fmt.Println("       involuntary min 16.9, median 28.2, mean 35.0 us")
	costs := sim.PaperSwitchCosts()
	rng := sim.NewRNG(2024)
	for _, kind := range []sim.SwitchKind{sim.Voluntary, sim.Involuntary} {
		var s metrics.Summary
		for i := 0; i < 100_000; i++ {
			s.Add(costs.Sample(kind, rng).MicrosecondsF())
		}
		fmt.Printf("measured %-11s %s us\n", kind.String(), s.String())
	}

	// The 0.7% arithmetic: MPEG video + AC3 audio + their data
	// management threads + the Sporadic Server, each at 30 Hz-ish
	// periods, on the stochastic cost model.
	fmt.Println()
	fmt.Println("paper: tuned MPEG+AC3 system: ~300 switches/s, ~0.7% of CPU")
	d := newDist(core.Config{Seed: 7})
	period := ticks.PerSecond / 30
	mpeg := workload.NewMPEG()
	ac3 := workload.NewAC3()
	_, _ = d.RequestAdmittance(mpeg.Task())
	_, _ = d.RequestAdmittance(ac3.Task())
	// Data-management threads for each decoder.
	for _, n := range []string{"mpeg-data", "ac3-data"} {
		_, _ = d.RequestAdmittance(&task.Task{
			Name: n,
			List: task.SingleLevel(period, ms/2, "ManageData"),
			Body: task.PeriodicWork(ms / 2),
		})
	}
	_, _ = d.AddSporadicServer("sporadic", task.SingleLevel(period, ms/4, "SS"), false)
	d.Run(10 * ticks.PerSecond)
	st := d.KernelStats()
	perSec := float64(st.VolSwitches+st.InvolSwitches) / 10
	fmt.Printf("measured: %.0f switches/s (%d vol, %d invol), overhead %.2f%% of CPU\n",
		perSec, st.VolSwitches, st.InvolSwitches, 100*st.SwitchOverheadFraction())
}

// expAdmission reproduces §6.2: admission control is O(1), costing
// 150-200 us regardless of how many threads are in the system.
func expAdmission() {
	fmt.Println("paper: constant time, 150-200 us at any thread count")
	cm := rm.DefaultCostModel()
	fmt.Printf("  %8s %14s %14s %12s\n", "threads", "sim cost (us)", "host ns/admit", "checks")
	for _, n := range []int{1, 10, 50, 100, 250} {
		m := rm.New(rm.Config{})
		list := task.SingleLevel(270*ms, 270*ms*3/1000, "T") // 0.3% each
		body := task.Busy()
		rng := sim.NewRNG(uint64(n))
		var sum ticks.Ticks
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := m.RequestAdmittance(&task.Task{Name: fmt.Sprintf("t%d", i), List: list, Body: body}); err != nil {
				fmt.Printf("  admission unexpectedly denied at %d: %v\n", i, err)
				return
			}
			sum += cm.OpCost(m.LastOp(), rng)
		}
		host := time.Since(start).Nanoseconds() / int64(n)
		fmt.Printf("  %8d %14.1f %14d %12d\n",
			n, sum.MicrosecondsF()/float64(n), host, m.LastOp().AdmissionChecks)
	}
}

// expGrantSet reproduces §6.3: O(1) in underload, O(N) with the
// policy correlation passes in overload.
func expGrantSet() {
	fmt.Println("paper: underload O(1); overload O(N) with up to three passes")
	fmt.Println("(sim cost includes the constant ~175us admission of the probe task)")
	fmt.Printf("  %8s %10s %15s %10s %8s %8s\n",
		"threads", "state", "admit+grant us", "entries", "passes", "host ns")
	cm := rm.DefaultCostModel()
	for _, overload := range []bool{false, true} {
		for _, n := range []int{2, 5, 10, 20, 50} {
			m := rm.New(rm.Config{})
			body := task.Busy()
			// Admit n-1 tasks, then time the n-th (it recomputes the
			// whole grant set). Overload lists shed from 90% all the
			// way to a 1% minimum so even 50 of them pass admission;
			// underload lists stay at 1% so the maxima always fit.
			small := task.UniformLevels(270_000, "T", 1)
			if overload {
				small = task.UniformLevels(270_000, "T", 90, 50, 20, 10, 5, 2, 1)
			}
			for i := 0; i < n-1; i++ {
				if _, err := m.RequestAdmittance(&task.Task{Name: fmt.Sprintf("t%d", i), List: small, Body: body}); err != nil {
					fmt.Printf("  setup denied at %d: %v\n", i, err)
					return
				}
			}
			start := time.Now()
			if _, err := m.RequestAdmittance(&task.Task{Name: "probe", List: small, Body: body}); err != nil {
				fmt.Printf("  probe denied: %v\n", err)
				return
			}
			host := time.Since(start).Nanoseconds()
			op := m.LastOp()
			state := "under"
			if op.PolicyConsulted {
				state = "overload"
			}
			cost := cm.OpCost(op, nil)
			fmt.Printf("  %8d %10s %14.1f %10d %8d %8d\n",
				n, state, cost.MicrosecondsF(), op.EntriesExamined, op.Passes, host)
		}
	}
}

// expPreempt reproduces §6.4: a controlled (grace-period) preemption
// versus a plain involuntary one.
func expPreempt() {
	fmt.Println("paper: managed preemption costs 'potentially much less' than an")
	fmt.Println("       involuntary switch; checking the grace flag is nearly free")
	run := func(controlled bool) (vol, invol int64, exceptions int64) {
		d := newDist(core.Config{Seed: 5})
		// A long task that gets preempted by a short task every 10ms.
		long := &task.Task{
			Name:                 "long",
			List:                 task.SingleLevel(45*ms, 15*ms, "L"),
			Body:                 task.CooperativeWork(15*ms, 50*ticks.PerMicrosecond),
			ControlledPreemption: controlled,
		}
		id, _ := d.RequestAdmittance(long)
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
		})
		d.Run(5 * ticks.PerSecond)
		st := d.KernelStats()
		ts, _ := d.Stats(id)
		return st.VolSwitches, st.InvolSwitches, ts.Exceptions
	}
	vol0, invol0, _ := run(false)
	vol1, invol1, exc := run(true)
	fmt.Printf("  uncontrolled: %4d voluntary, %4d involuntary switches over 5s\n", vol0, invol0)
	fmt.Printf("  controlled:   %4d voluntary, %4d involuntary switches, %d grace overruns\n", vol1, invol1, exc)
	fmt.Printf("  involuntary switches avoided: %d (each ~14.3us dearer than voluntary)\n", invol0-invol1)

	// §5.6's second-order cost: "the cache state may also be lost."
	// With a 200us cold-cache refill modelled, each avoided
	// involuntary preemption also avoids a refill.
	runCache := func(controlled bool) ticks.Ticks {
		costs := sim.PaperSwitchCosts()
		costs.CacheRefillUS = 200
		d := newDist(core.Config{Seed: 5, SwitchCosts: &costs})
		var productive ticks.Ticks
		long := &task.Task{
			Name: "long",
			List: task.SingleLevel(45*ms, 15*ms, "L"),
			Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if ctx.InGracePeriod {
					return task.RunResult{Used: 0, Op: task.OpYield}
				}
				productive += ctx.Span
				op := task.OpRanOut
				if controlled {
					op = task.OpYield
				}
				return task.RunResult{Used: ctx.Span, Op: op, Completed: controlled}
			}),
			ControlledPreemption: controlled,
		}
		id, _ := d.RequestAdmittance(long)
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "short", List: task.SingleLevel(10*ms, 5*ms, "S"), Body: task.PeriodicWork(5 * ms),
		})
		d.Run(5 * ticks.PerSecond)
		st, _ := d.Stats(id)
		return st.UsedTicks - productive
	}
	fmt.Printf("  with a 200us cache-refill model: uncontrolled loses %v of grant\n", runCache(false))
	fmt.Printf("  to cold-cache refills; controlled loses %v\n", runCache(true))
}

// expFig4 reproduces the §6.5 first run: four periodic threads plus
// the Sporadic Server, 1/30s periods, 13/2/3/3 ms maxima; the 13ms
// thread never finishes and soaks unused time as overtime.
func expFig4() {
	fmt.Println("paper: producer 7 takes unused time (light) plus its guarantee (dark);")
	fmt.Println("       data threads busy-wait their grants (the application bug)")
	rec := recFor(ticks.PerSecond / 3)
	d := newDist(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	must(workload.Figure4(d))
	d.Run(ticks.PerSecond / 3)
	fmt.Println("measured schedule (final 100ms of the 333ms run):")
	fmt.Println(rec.Gantt(ticks.PerSecond/3-100*ms, ticks.PerSecond/3, 100))
	fmt.Printf("deadline misses: %d (the set does not overload the system)\n", rec.MissCount())
}

func init() {
	experiments = append(experiments,
		experiment{"fig4fix", "§6.5: the Figure 4 application bug, fixed with events", expFig4Fix},
	)
}

// expFig4Fix applies the fix the paper prescribes for the Figure 4
// application bug: "the data management threads should block, waiting
// for the data to become available. The context switches to the data
// management threads could be avoided when no data is available. The
// producer threads could set an event when data is available, and the
// data management threads would regain their scheduling guarantees in
// the following period."
func expFig4Fix() {
	period := ticks.PerSecond / 30
	run := func(fixed bool) (switches int64, dataCPU ticks.Ticks, misses int) {
		rec := trace.New()
		d := newDist(core.Config{Seed: 3, Observer: rec})
		_, _ = d.AddSporadicServer("ss", task.SingleLevel(2_700_000, 27_000, "SS"), true)

		// Producer 9 completes 3ms of work each period and, in the
		// fixed version, raises a data-ready event for its consumer.
		var dataReady bool
		var consumer task.ID
		producerBody := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			left := 3*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
			}
			if fixed && !dataReady {
				dataReady = true
				if consumer != task.NoID {
					_ = d.Unblock(consumer)
				}
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		})
		var dataBody task.Body
		if fixed {
			dataBody = task.BodyFunc(func(ctx task.RunContext) task.RunResult {
				if !dataReady {
					// Nothing to manage: block until the producer
					// signals, regaining guarantees next period.
					return task.RunResult{Op: task.OpBlock}
				}
				left := 2*ms - ctx.UsedThisPeriod
				if left <= 0 {
					dataReady = false
					return task.RunResult{Op: task.OpBlock, Completed: true}
				}
				if left > ctx.Span {
					return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
				}
				dataReady = false
				return task.RunResult{Used: left, Op: task.OpBlock, Completed: true}
			})
		} else {
			// The buggy original: busy-wait the whole grant.
			dataBody = task.BusyYield()
		}

		_, _ = d.RequestAdmittance(&task.Task{Name: "producer7", List: task.SingleLevel(period, 13*ms, "P"), Body: task.Busy()})
		_, _ = d.RequestAdmittance(&task.Task{Name: "producer9", List: task.SingleLevel(period, 3*ms, "P"), Body: producerBody})
		dataID, _ := d.RequestAdmittance(&task.Task{Name: "data10", List: task.SingleLevel(period, 3*ms, "D"), Body: dataBody})
		consumer = dataID
		d.Run(ticks.PerSecond)
		st := d.KernelStats()
		ds, _ := d.Stats(dataID)
		return st.VolSwitches + st.InvolSwitches, ds.UsedTicks, rec.MissCount()
	}

	bugSw, bugCPU, bugMiss := run(false)
	fixSw, fixCPU, fixMiss := run(true)
	fmt.Println("paper: blocking on a producer event avoids the context switches to")
	fmt.Println("idle data-management threads; over 1s at 30Hz:")
	fmt.Printf("  %-10s switches=%4d data-thread CPU=%-8v misses=%d\n", "buggy", bugSw, bugCPU, bugMiss)
	fmt.Printf("  %-10s switches=%4d data-thread CPU=%-8v misses=%d\n", "fixed", fixSw, fixCPU, fixMiss)
	fmt.Printf("  switches avoided: %d; CPU freed for the producers: %v\n", bugSw-fixSw, bugCPU-fixCPU)
}

// expFig5 reproduces the §6.5 second run: the overload staircase.
func expFig5() {
	fmt.Println("paper: thread 2 allocation steps 9 -> 4 -> 3 -> 2 -> 2 ms as")
	fmt.Println("       threads are admitted every 20ms; no deadline misses")
	rec := recFor(ticks.PerSecond)
	d := newDist(core.Config{
		SwitchCosts:             zeroCosts(),
		InterruptReservePercent: 4,
		Observer:                rec,
	})
	s := must(workload.Staircase(d, workload.Figure5Arrivals()))
	d.Run(200 * ms)
	check(s.Err())
	fmt.Println("measured allocations (ms CPU per 10ms period):")
	fmt.Print(rec.AllocationTable(s.IDs(), 150*ms))
	fmt.Println()
	fmt.Print(rec.StaircaseChart(s.Threads[0], 150*ms, 75))
	fmt.Printf("deadline misses: %d (paper: guarantees held)\n", rec.MissCount())
}
