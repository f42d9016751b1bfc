package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

// Admit two tasks, run one simulated second, and print the grant set
// and per-task accounting.
func Example() {
	d := core.New(core.Config{})

	// An MPEG-like decoder: 30 frames/s, one third of the CPU at top
	// quality, with one load-shedding level (Table 2 is the full
	// four-level menu; see workload.Settop).
	mpeg, err := d.RequestAdmittance(&task.Task{
		Name: "mpeg",
		List: task.ResourceList{
			{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
			{Period: 900_000, CPU: 150_000, Fn: "HalfRes"},
		},
		Body: task.PeriodicWork(300_000),
	})
	if err != nil {
		log.Fatalf("admit mpeg: %v", err)
	}

	// A background sweeper that will happily soak any unused CPU.
	sweep, err := d.RequestAdmittance(&task.Task{
		Name: "sweeper",
		List: task.SingleLevel(ticks.FromMilliseconds(10), ticks.FromMilliseconds(1), "Sweep"),
		Body: task.Busy(),
	})
	if err != nil {
		log.Fatalf("admit sweeper: %v", err)
	}

	fmt.Println("grant set after admission:")
	for _, id := range d.Grants().IDs() {
		fmt.Printf("  %v\n", d.Grants()[id])
	}

	d.Run(ticks.FromSeconds(1))

	for _, t := range []struct {
		name string
		id   task.ID
	}{{"mpeg", mpeg}, {"sweeper", sweep}} {
		st, _ := d.Stats(t.id)
		fmt.Printf("%-8s periods=%d misses=%d granted=%v used=%v overtime=%v\n",
			t.name, st.Periods, st.Misses, st.GrantedTicks, st.UsedTicks, st.OvertimeTicks)
	}
	ks := d.KernelStats()
	fmt.Printf("switches: %d voluntary, %d involuntary (%.2f%% of CPU); idle %v\n",
		ks.VolSwitches, ks.InvolSwitches, 100*ks.SwitchOverheadFraction(), ks.IdleTicks)
	// Output:
	// grant set after admission:
	//   task 1: period=900000 cpu=300000 rate=33.3% fn=FullDecompress
	//   task 2: period=270000 cpu=27000 rate=10.0% fn=Sweep
	// mpeg     periods=30 misses=0 granted=9000000t used=9000000t overtime=0t
	// sweeper  periods=100 misses=0 granted=100ms used=100ms overtime=15202250t
	// switches: 30 voluntary, 91 involuntary (0.36% of CPU); idle 0t
}

// The MAP1000's non-CPU resources: the exclusive Fixed Function Unit
// and Data Streamer bandwidth (Table 1's omitted fields; §7's
// future-work item). Two renderers contend for the FFU video scaler
// while three streaming tasks share a 400 MB/s Data Streamer; grant
// control sheds levels on whichever dimension binds.
func Example_multiresource() {
	// Top render levels use the FFU scaler; lower ones render in
	// software.
	render := task.ResourceList{
		{Period: 10 * ms, CPU: 3 * ms, Fn: "RenderScaled", NeedsFFU: true, StreamerMBps: 120},
		{Period: 10 * ms, CPU: 2 * ms, Fn: "RenderSoft", StreamerMBps: 80},
		{Period: 10 * ms, CPU: 1 * ms, Fn: "RenderSoft", StreamerMBps: 40},
	}
	stream := task.ResourceList{
		{Period: 10 * ms, CPU: 1 * ms, Fn: "StreamHQ", StreamerMBps: 150},
		{Period: 10 * ms, CPU: ms / 2, Fn: "StreamLQ", StreamerMBps: 60},
	}

	// The user prefers the main view; the Policy Box names it the
	// exclusive-resource holder.
	box := policy.NewBox()
	shares := policy.Ranking{}
	var mainView policy.MemberID
	for i, m := range []struct {
		name string
		pct  int
	}{{"main-view", 30}, {"pip-view", 20}, {"capture", 15}, {"playback-1", 15}, {"playback-2", 15}} {
		id := box.Register(m.name)
		shares[id] = m.pct
		if i == 0 {
			mainView = id
		}
	}
	if err := box.SetDefault(policy.Policy{Shares: shares, Exclusive: mainView}); err != nil {
		log.Fatal(err)
	}

	d := core.New(core.Config{
		PolicyBox: box,
		Streamer:  resource.Capacity{StreamerMBps: 400},
	})

	names := map[task.ID]string{}
	for _, t := range []struct {
		name string
		list task.ResourceList
	}{{"main-view", render}, {"pip-view", render}, {"capture", stream}, {"playback-1", stream}, {"playback-2", stream}} {
		id, err := d.RequestAdmittance(&task.Task{Name: t.name, List: t.list, Body: task.BusyYield()})
		if err != nil {
			log.Fatalf("admit %s: %v", t.name, err)
		}
		names[id] = t.name
	}

	fmt.Println("grant set (400 MB/s Streamer, one FFU):")
	fmt.Printf("  %-12s %8s %10s %6s %10s\n", "task", "cpu", "rate", "ffu", "streamer")
	gs := d.Grants()
	var totalMBps int64
	ffuHolders := 0
	for _, id := range gs.IDs() {
		g := gs[id]
		ffu := ""
		if g.Entry.NeedsFFU {
			ffu = "yes"
			ffuHolders++
		}
		totalMBps += g.Entry.StreamerMBps
		fmt.Printf("  %-12s %8d %10s %6s %7dMBps\n",
			names[id], g.Entry.CPU, g.Entry.Rate(), ffu, g.Entry.StreamerMBps)
	}
	fmt.Printf("  totals: %.1f%% CPU, %d MB/s of 400, %d FFU holder(s)\n\n",
		100*gs.TotalFrac().Float(), totalMBps, ffuHolders)

	d.Run(ticks.PerSecond)
	misses := int64(0)
	for id := range names {
		st, _ := d.Stats(id)
		misses += st.Misses
	}
	fmt.Printf("after 1s simulated: %d deadline misses across all five tasks\n", misses)
	fmt.Println("the policy-designated main view holds the FFU; streaming levels")
	fmt.Println("shed until the Data Streamer fits — policy decides, not timing.")
	// Output:
	// grant set (400 MB/s Streamer, one FFU):
	//   task              cpu       rate    ffu   streamer
	//   main-view       81000      30.0%    yes     120MBps
	//   pip-view        54000      20.0%             80MBps
	//   capture         13500       5.0%             60MBps
	//   playback-1      13500       5.0%             60MBps
	//   playback-2      13500       5.0%             60MBps
	//   totals: 65.0% CPU, 380 MB/s of 400, 1 FFU holder(s)
	//
	// after 1s simulated: 0 deadline misses across all five tasks
	// the policy-designated main view holds the FFU; streaming levels
	// shed until the Data Streamer fits — policy decides, not timing.
}

// The capstone: a MAP1000-class set-top/studio box exercising every
// Resource Distributor feature at once over ten simulated seconds — a
// live MPEG transport stream (bounded buffer, blocking decoder), AC3
// audio protected by a user policy (§4.3), a graphics overlay shedding
// by policy, a quiescent modem woken mid-run (§5.3), a Sporadic Server
// running background jobs (§5.1), interrupt load inside the §5.2
// reserve, and a display phase-locked to a drifting refresh crystal
// (§5.4). Every grant is delivered in every period.
func Example_studio() {
	// Policy: overload demotions walk least-important-first (§6.3),
	// so audio must outrank the overlay. The overlay is the
	// designated shedding victim when the modem wakes. The same
	// ranking, less the modem, governs the pre-call set.
	box := policy.NewBox()
	shares, preCall := policy.Ranking{}, policy.Ranking{}
	for _, m := range []struct {
		name string
		pct  int
	}{{"ac3", 25}, {"mpeg-live", 33}, {"overlay", 15}, {"modem", 10}, {"display", 12}, {"sporadic", 1}} {
		id := box.Register(m.name)
		shares[id] = m.pct
		if m.name != "modem" {
			preCall[id] = m.pct
		}
	}
	for _, r := range []policy.Ranking{shares, preCall} {
		if err := box.SetDefault(policy.Policy{Shares: r}); err != nil {
			log.Fatal(err)
		}
	}

	rec := trace.New()
	d := core.New(core.Config{
		Seed:                    2026,
		InterruptReservePercent: 4,
		PolicyBox:               box,
		Streamer:                resource.Capacity{StreamerMBps: 400},
		Observer:                rec,
	})
	names := map[task.ID]string{}
	admit := func(t *task.Task) task.ID {
		id, err := d.RequestAdmittance(t)
		if err != nil {
			log.Fatal(err)
		}
		names[id] = t.Name
		return id
	}

	// Live MPEG from a 30fps transport stream, and AC3 audio.
	stream := workload.NewTransportStream(d, 900_000, 6)
	dec := workload.NewStreamedMPEG(stream)
	stream.Start(d, admit(dec.Task()))
	ac3 := workload.NewAC3()
	admit(ac3.Task())

	// Graphics overlay with a shed menu.
	admit(&task.Task{
		Name: "overlay",
		List: task.ResourceList{
			{Period: 10 * ms, CPU: 2 * ms, Fn: "OverlayFull", StreamerMBps: 80},
			{Period: 10 * ms, CPU: 1 * ms, Fn: "OverlayHalf", StreamerMBps: 40},
		},
		Body:      task.BusyYield(),
		Semantics: task.ReturnSemantics,
	})

	// Quiescent modem: the call comes at t=4s.
	modem := workload.NewModem()
	modemID := admit(modem.Task(true))
	var wakeErr error
	d.At(4*ticks.PerSecond, func() { wakeErr = d.Wake(modemID) })

	// Display phase-locked to a +100ppm refresh crystal.
	ext := extclock.New(100, 0)
	lock, err := extclock.NewEstimatingPhaseLock(270_000, 269_400, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := extclock.NewPhaseLock(ext, 270_000, 269_400)
	if err != nil {
		log.Fatal(err)
	}
	var displayID task.ID
	var maxPhaseErr ticks.Ticks
	displayPeriods := 0
	displayID = admit(&task.Task{
		Name: "display",
		List: task.SingleLevel(269_400, 2*ms, "Refresh"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				displayPeriods++
				if displayPeriods > 5 {
					if e := oracle.PhaseErrorAt(ctx.PeriodStart); e > maxPhaseErr {
						maxPhaseErr = e
					}
				}
				lock.Observe(ctx.Now, ext.ReadAt(ctx.Now))
				_ = d.InsertIdleCycles(displayID, lock.Insertion(ctx.PeriodStart, ctx.Now, ext.ReadAt(ctx.Now)))
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}),
	})

	// Sporadic Server with two background jobs.
	ssID, err := d.AddSporadicServer("sporadic", task.SingleLevel(10*ms, ms/2, "SS"), true)
	if err != nil {
		log.Fatal(err)
	}
	names[ssID] = "sporadic"
	var indexed, compressed ticks.Ticks
	d.AddSporadic("indexer", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		indexed += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	d.AddSporadic("compress", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		compressed += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))

	// Interrupt load inside the reserve: 25us every millisecond.
	if err := d.AddInterruptLoad(ms, 25*ticks.PerMicrosecond); err != nil {
		log.Fatal(err)
	}

	fmt.Println("grants before the call:")
	printGrants(d, names)
	d.Run(10 * ticks.PerSecond)
	if wakeErr != nil {
		log.Fatal(wakeErr)
	}
	fmt.Println("\ngrants after the call (modem active):")
	printGrants(d, names)

	ac3.Flush()
	ks := d.KernelStats()
	fmt.Println("\nten seconds of studio operation:")
	fmt.Printf("  mpeg:    %s / %s\n", dec.Stats().QualityString(), stream.Stats().QualityString())
	fmt.Printf("  ac3:     %s\n", ac3.Stats().QualityString())
	fmt.Printf("  modem:   %s (woken at t=4s)\n", modem.Stats().QualityString())
	fmt.Printf("  display: %d periods, max phase error %.1fus vs the drifting crystal\n",
		displayPeriods, maxPhaseErr.MicrosecondsF())
	fmt.Printf("  sporadic work: indexer %v, compress %v\n", indexed, compressed)
	fmt.Printf("  interrupts: %d (%.1f%% of CPU, inside the 4%% reserve)\n",
		ks.Interrupts, 100*ks.InterruptLoadFraction())
	fmt.Printf("  switches: %d (%.2f%% of CPU); idle %.1f%%\n",
		ks.VolSwitches+ks.InvolSwitches, 100*ks.SwitchOverheadFraction(),
		100*float64(ks.IdleTicks)/float64(ks.Now))
	fmt.Printf("  deadline misses: %d\n", rec.MissCount())
	// Output:
	// grants before the call:
	//   mpeg-live    33.3%  DecodeLive
	//   ac3          12.0%  DecodeAC3
	//   overlay      20.0%  OverlayFull
	//   display      20.0%  Refresh
	//   sporadic      5.0%  SS
	//   total 90.4%
	//
	// grants after the call (modem active):
	//   mpeg-live    33.3%  DecodeLive
	//   ac3          12.0%  DecodeAC3
	//   overlay      10.0%  OverlayHalf
	//   modem        10.0%  Modem
	//   display      20.0%  Refresh
	//   sporadic      5.0%  SS
	//   total 90.4%
	//
	// ten seconds of studio operation:
	//   mpeg:    decoded=298 ruined=0 starved=1 / arrived=299 overruns=0
	//   ac3:     frames=313 dropouts=0
	//   modem:   serviced=599 overruns=0 (woken at t=4s)
	//   display: 1001 periods, max phase error 0.1us vs the drifting crystal
	//   sporadic work: indexer 45962085t, compress 1700ms
	//   interrupts: 9999 (2.5% of CPU, inside the 4% reserve)
	//   switches: 5168 (1.34% of CPU); idle 0.0%
	//   deadline misses: 0
}

func printGrants(d *core.Distributor, names map[task.ID]string) {
	gs := d.Grants()
	for _, id := range gs.IDs() {
		g := gs[id]
		ffu := ""
		if g.Entry.NeedsFFU {
			ffu = " +FFU"
		}
		fmt.Printf("  %-10s %7s  %s%s\n", names[id], g.Entry.Rate(), g.Entry.Fn, ffu)
	}
	fmt.Printf("  total %.1f%%\n", 100*gs.TotalFrac().Float())
}
