package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/streamer"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// expBaselines regenerates the §3.4/§3.5 comparison: the same MPEG
// decoder and background load under fair-share scheduling (SMART-like
// overload behaviour), capacity reserves (CPR-like worst-case
// reservation), and the Resource Distributor.
func expBaselines() {
	horizon := 2 * ticks.PerSecond

	fmt.Println("paper claims: fair share misses real-time deadlines in overload;")
	fmt.Println("reserves strand worst-case reservations; the RD sheds by policy")
	fmt.Println()

	// --- MPEG quality in 120% overload ---
	fs := baseline.NewFairShare(sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()}), ms)
	fsMix := workload.MPEGMixOn(fs)
	fs.RunUntil(horizon)
	fsMix.MPEG.Flush()

	d := newDist(core.Config{SwitchCosts: zeroCosts()})
	rdMix := must(workload.MPEGMix(d))
	d.Run(horizon)
	rdMix.MPEG.Flush()

	fmt.Println("MPEG quality over 2s at 120% offered load:")
	fmt.Printf("  fair share:  %s\n", fsMix.MPEG.Stats().QualityString())
	fmt.Printf("  distributor: %s\n", rdMix.MPEG.Stats().QualityString())
	fmt.Println()

	// --- utilization with a variable-demand task ---
	k2 := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	r := baseline.NewReserves(k2)
	_ = r.Reserve("variable", 10*ms, 8*ms, task.PeriodicWork(2*ms))
	_ = r.Reserve("bg", 10*ms, 2*ms, task.Busy())
	r.RunUntil(ticks.PerSecond)

	d2 := newDist(core.Config{SwitchCosts: zeroCosts()})
	_, _ = d2.RequestAdmittance(&task.Task{
		Name: "variable", List: task.SingleLevel(10*ms, 8*ms, "V"), Body: task.PeriodicWork(2 * ms),
	})
	_, _ = d2.RequestAdmittance(&task.Task{
		Name: "bg", List: task.SingleLevel(10*ms, 2*ms, "BG"), Body: task.Busy(),
	})
	d2.Run(ticks.PerSecond)

	fmt.Println("CPU utilization with a worst-case-8ms task that uses 2ms,")
	fmt.Println("plus a background task that wants everything:")
	fmt.Printf("  reserves:    %4.1f%% (unused reservation stranded)\n", 100*r.Utilization())
	fmt.Printf("  distributor: %4.1f%% (unused grant flows to overtime)\n",
		100*d2.KernelStats().Utilization())
	fmt.Println()

	// --- Rialto-style constraints: refusals by accident of timing ---
	k3 := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	ri := baseline.NewRialto(k3)
	ri.AddTask("hog", 10*ms, 4*ms)
	ri.AddTask("rival", 900_000, 0)
	ri.AddTask("mpeg", 900_000, 0)
	rng := sim.NewRNG(5)
	gop := []workload.FrameType(workload.DefaultGOP)
	frameBody := task.BusySilent()
	var refusedI, refused, accepted, frame int
	var schedule func()
	schedule = func() {
		est := ticks.Ticks(100_000 + rng.Intn(400_000))
		_ = ri.BeginConstraint("rival", k3.Now()+900_000, est, frameBody)
		ftype := gop[frame%len(gop)]
		frame++
		if ri.BeginConstraint("mpeg", k3.Now()+900_000, workload.MPEGFrameCost, frameBody) {
			accepted++
		} else {
			refused++
			if ftype == workload.IFrame {
				refusedI++
			}
		}
		if k3.Now()+900_000 < horizon {
			k3.At(k3.Now()+900_000, schedule)
		}
	}
	k3.At(0, schedule)
	ri.RunUntil(horizon)
	fmt.Println("Rialto-style per-frame constraints under a varying rival load:")
	fmt.Printf("  mpeg frames: %d accepted, %d refused — %d refusals hit I frames\n",
		accepted, refused, refusedI)
	fmt.Println("  (the RD's level-based shedding drops only B frames, by policy)")
}

func init() {
	experiments = append(experiments,
		experiment{"notify", "§3.5: notification-based shedding vs the Policy Box", expNotify},
		experiment{"latency", "§4.2: the 2·period − 2·CPU latency bound", expLatency},
		experiment{"streamer", "Data Streamer: bandwidth grants metering real DMA", expStreamer},
	)
}

// expStreamer demonstrates the full CPU+bandwidth grant pipeline: a
// streaming task's DMA channel runs at its granted Data Streamer
// rate; when overload sheds its level, the channel re-rates and
// transfer latency stretches accordingly — §7's "manage bandwidth as
// a resource", measured.
func expStreamer() {
	fmt.Println("a 100KB transfer every 10ms through a channel rated at the task's")
	fmt.Println("granted StreamerMBps; a CPU hog arrives at t=500ms and sheds it")
	d := newDist(core.Config{SwitchCosts: zeroCosts()})
	e := streamer.New(d.Kernel(), 400)
	list := task.ResourceList{
		{Period: 270_000, CPU: 81_000, Fn: "StreamHQ", StreamerMBps: 200},
		{Period: 270_000, CPU: 27_000, Fn: "StreamLQ", StreamerMBps: 50},
	}
	var ch *streamer.Channel
	spin := task.BusyYield()
	id, _ := d.RequestAdmittance(&task.Task{
		Name: "pipeline",
		List: list,
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if (ctx.NewPeriod || ctx.GrantChanged) && ch != nil {
				if want := list[ctx.Level].StreamerMBps; ch.Rate() != want {
					_ = ch.SetRate(want)
				}
			}
			return spin.Run(ctx)
		}),
	})
	ch, _ = e.Open("pipeline", 200)
	type sample struct {
		at  ticks.Ticks
		lat ticks.Ticks
	}
	var samples []sample
	var pump func()
	pump = func() {
		start := d.Now()
		_ = ch.Submit(100_000, func() {
			samples = append(samples, sample{at: start, lat: d.Now() - start})
		})
		if d.Now() < 900*ms {
			d.Kernel().After(10*ms, pump)
		}
	}
	d.Kernel().At(0, pump)
	d.At(500*ms, func() {
		_, _ = d.RequestAdmittance(&task.Task{
			Name: "hog", List: task.SingleLevel(270_000, 216_000, "H"), Body: task.Busy(),
		})
	})
	d.Run(ticks.PerSecond)

	var before, after ticks.Ticks
	var nb, na int
	for _, s := range samples {
		if s.at < 450*ms {
			before += s.lat
			nb++
		} else if s.at > 550*ms {
			after += s.lat
			na++
		}
	}
	fmt.Printf("  transfer latency before shed: %.2fms (at %d MB/s)\n",
		float64(before)/float64(nb)/float64(ms), 200)
	fmt.Printf("  transfer latency after shed:  %.2fms (at %d MB/s)\n",
		float64(after)/float64(na)/float64(ms), 50)
	st, _ := d.Stats(id)
	fmt.Printf("  pipeline level now %s; deadline misses: %d\n",
		d.Grants()[id].Entry.Fn, st.Misses)
}

// expLatency measures worst-case completion latency for the Table 4
// workload against the §4.2 bound: "the maximum guaranteed latency
// for a task is twice its period minus twice its CPU requirement."
func expLatency() {
	fmt.Println("paper: max latency = 2*period - 2*CPU (grant at the start of one")
	fmt.Println("period, then at the end of the next); Table 4 workload, 10s")
	rec := recFor(10 * ticks.PerSecond)
	d := newDist(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	must(workload.Settop(d, 42))
	d.Run(10 * ticks.PerSecond)
	rep := trace.Analyze(rec.Export())
	grantByName := map[string]rm.Grant{}
	for _, g := range d.Grants() {
		grantByName[rec.NameOf(g.Task)] = g
	}
	fmt.Printf("  %-8s %12s %12s %8s\n", "task", "worst (ms)", "bound (ms)", "within")
	for _, tr := range rep.Tasks {
		g, ok := grantByName[tr.Name]
		if !ok {
			continue
		}
		bound := 2*g.Entry.Period - 2*g.Entry.CPU
		within := "yes"
		if tr.WorstLatency > bound {
			within = "NO"
		}
		fmt.Printf("  %-8s %12.2f %12.2f %8s\n",
			tr.Name, tr.WorstLatency.MillisecondsF(), bound.MillisecondsF(), within)
	}
}

// expNotify regenerates §3.5's critique of failure-notification
// systems: the third-party round trip arrives after deadlines are
// already missed, and the shed target is whoever asked last.
func expNotify() {
	fmt.Println("scenario: two resident 40% tasks; a third 40% task arrives at")
	fmt.Println("t=100ms. Notification system: 30ms third-party round trip.")
	k := sim.NewKernel(sim.Config{Costs: sim.ZeroSwitchCosts()})
	nf := baseline.NewNotifier(k, 30*ms)
	menu := []ticks.Ticks{4 * ms, 1 * ms}
	nf.Add("a", 10*ms, menu)
	nf.Add("b", 10*ms, menu)
	k.At(100*ms, func() { nf.Add("c", 10*ms, menu) })
	nf.RunUntil(ticks.PerSecond)
	var missed int64
	for _, n := range []string{"a", "b", "c"} {
		st, _ := nf.Stats(n)
		missed += st.MissedPeriods
		fmt.Printf("  notify %-2s: %3d periods, %2d missed, used %v\n",
			n, st.Periods, st.MissedPeriods, st.UsedTicks)
	}

	zero := sim.ZeroSwitchCosts()
	d := newDist(core.Config{SwitchCosts: &zero})
	list := task.ResourceList{
		{Period: 10 * ms, CPU: 4 * ms, Fn: "Hi"},
		{Period: 10 * ms, CPU: 1 * ms, Fn: "Lo"},
	}
	ids := map[string]task.ID{}
	for _, n := range []string{"a", "b"} {
		ids[n], _ = d.RequestAdmittance(&task.Task{Name: n, List: list, Body: task.BusyYield()})
	}
	d.At(100*ms, func() {
		ids["c"], _ = d.RequestAdmittance(&task.Task{Name: "c", List: list, Body: task.BusyYield()})
	})
	d.Run(ticks.PerSecond)
	var rdMissed int64
	for _, n := range []string{"a", "b", "c"} {
		st, _ := d.Stats(ids[n])
		rdMissed += st.Misses
		fmt.Printf("  RD     %-2s: %3d periods, %2d missed, used %v\n",
			n, st.Periods, st.Misses, st.UsedTicks)
	}
	fmt.Printf("deadline misses: notification system %d, Resource Distributor %d\n",
		missed, rdMissed)
}

// expClock regenerates the §5.4 experiment: a display task whose
// period is defined by an external crystal drifting against the
// scheduling clock, with and without InsertIdleCycles compensation.
func expClock() {
	fmt.Printf("external clock drifts +%.0f ppm; task tracks 100Hz boundaries\n", workload.DisplayDriftPPM)
	fmt.Println("paper: uncompensated clocks slip a full frame over time; the")
	fmt.Println("InsertIdleCycles interface postpones periods to stay in phase")

	run := func(compensate bool) *workload.LockedDisplay {
		d := newDist(core.Config{SwitchCosts: zeroCosts()})
		l := must(workload.PhaseLockedDisplay(d, compensate))
		d.Run(10 * ticks.PerSecond)
		check(l.Err())
		return l
	}

	raw, lock := run(false), run(true)
	fmt.Printf("  uncompensated: max phase error %6.1f us over %d periods\n",
		raw.MaxPhaseError.MicrosecondsF(), raw.Periods)
	fmt.Printf("  compensated:   max phase error %6.1f us over %d periods\n",
		lock.MaxPhaseError.MicrosecondsF(), lock.Periods)
}
