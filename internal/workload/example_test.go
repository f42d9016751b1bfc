package workload_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

// Table 4 / Figure 3: the modem, the 3D renderer and the MPEG decoder
// cannot all have their maxima, so the Resource Manager computes a
// grant set, the EDF Scheduler delivers it, and application quality
// shows what each task made of its grant.
func ExampleSettop() {
	rec := trace.New()
	d := core.New(core.Config{Observer: rec})
	s, err := workload.Settop(d, 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("grant set (compare Table 4):")
	fmt.Printf("  %-6s %10s %10s %7s  %s\n", "task", "period", "cpu req", "rate", "function")
	gs := d.Grants()
	for _, row := range []struct {
		name string
		id   task.ID
	}{{"modem", s.ModemID}, {"3d", s.G3DID}, {"mpeg", s.MPEGID}} {
		g := gs[row.id]
		fmt.Printf("  %-6s %10d %10d %7s  %s\n",
			row.name, g.Entry.Period, g.Entry.CPU, g.Entry.Rate(), g.Entry.Fn)
	}
	fmt.Printf("  total %.1f%% of CPU\n\n", 100*gs.TotalFrac().Float())

	d.Run(ticks.FromSeconds(2))

	fmt.Println("schedule, first 100 ms (compare Figure 3):")
	fmt.Println(rec.Gantt(0, 100*ms, 110))

	s.MPEG.Flush()
	fmt.Println("application quality over 2 s:")
	fmt.Printf("  modem: %s\n", s.Modem.Stats().QualityString())
	fmt.Printf("  3d:    %s\n", s.G3D.Stats().QualityString())
	fmt.Printf("  mpeg:  %s\n", s.MPEG.Stats().QualityString())
	fmt.Printf("deadline misses: %d — every admitted grant was delivered\n", rec.MissCount())
	// Output:
	// grant set (compare Table 4):
	//   task       period    cpu req    rate  function
	//   modem      270000      27000   10.0%  Modem
	//   3d        2700000    1080000   40.0%  Render3DFrame
	//   mpeg       900000     300000   33.3%  FullDecompress
	//   total 83.3% of CPU
	//
	// schedule, first 100 ms (compare Figure 3):
	//         0t                                                                                                       100ms
	// modem |#          #          #          #          #          #          #          #          #          #          |
	//    3d |              ######## ########## ##              ##### ########## #########                                  |
	//  mpeg | ########## ##                      ######## #####                          # ########## ##                   |
	//  idle |                                                                                           ........ ..........|
	//        legend: #=granted +=overtime g=grace s=sporadic .=idle
	//
	// application quality over 2 s:
	//   modem: serviced=200 overruns=0
	//   3d:    frames=29 ffu-cleanups=0 soft-changes=0
	//   mpeg:  decoded=60 plannedB-drops=0 unplanned-loss=0 lostI=0 ruined=0
	// deadline misses: 0 — every admitted grant was delivered
}

// Table 6 / Figure 5: five BusyLoop threads arrive 20 ms apart under a
// 4% interrupt reserve. With no stored policy the Policy Box invents
// even splits, and thread2's allocation steps 9 -> 4 -> 3 -> 2 -> 2 ms
// without a single missed deadline.
func ExampleStaircase() {
	rec := trace.New()
	d := core.New(core.Config{InterruptReservePercent: 4, Observer: rec})
	s, err := workload.Staircase(d, workload.Figure5Arrivals())
	if err != nil {
		log.Fatal(err)
	}
	d.Run(200 * ms)
	if err := s.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-period CPU allocations as threads arrive (compare Figure 5):")
	fmt.Print(rec.AllocationTable(s.IDs(), 150*ms))

	fmt.Println("\nschedule around the fifth admission (80-120 ms):")
	fmt.Println(rec.Gantt(80*ms, 120*ms, 100))

	fmt.Println("thread 2 staircase (allocation at its period starts):")
	for _, p := range rec.AllocationSeries(s.Threads[0]) {
		if p.Start > 110*ms {
			break
		}
		fmt.Printf("  t=%5.1fms  grant=%4.1fms (level %d)\n",
			p.Start.MillisecondsF(), p.CPU.MillisecondsF(), p.Level)
	}
	fmt.Printf("\ndeadline misses: %d — guarantees held through every admission\n", rec.MissCount())
	// Output:
	// per-period CPU allocations as threads arrive (compare Figure 5):
	//     t(ms)   sporadic    thread2    thread3    thread4    thread5    thread6
	//       0.0        1.0        9.0          -          -          -          -
	//      20.0        1.0        4.0          -          -          -          -
	//      24.0        1.0        4.0        5.0          -          -          -
	//      40.0        1.0        3.0        5.0          -          -          -
	//      43.0        1.0        3.0        5.0        3.0          -          -
	//      44.0        1.0        3.0        3.0        3.0          -          -
	//      60.0        1.0        2.0        3.0        3.0          -          -
	//      62.0        1.0        2.0        3.0        3.0        3.0          -
	//      63.0        1.0        2.0        3.0        2.0        3.0          -
	//      64.0        1.0        2.0        2.0        2.0        3.0          -
	//      82.0        1.0        2.0        2.0        2.0        3.0        1.0
	//      82.0        1.0        2.0        2.0        2.0        2.0        1.0
	//
	// schedule around the fifth admission (80-120 ms):
	//            80ms                                                                                           120ms
	// sporadic |                      +++                      +++                       ##                      +++|
	//  thread2 |#####                    #####                    #####                    #####                    |
	//  thread3 |                 #####                    #####                    #####                    #####   |
	//  thread4 |            #####                    #####                    #####                    #####        |
	//  thread5 |       #####                    #####                    #####                    #####             |
	//  thread6 |     ##                       ##                       ##                       ##                  |
	//     idle |                                                                                                    |
	//           legend: #=granted +=overtime g=grace s=sporadic .=idle
	//
	// thread 2 staircase (allocation at its period starts):
	//   t=  0.0ms  grant= 9.0ms (level 0)
	//   t= 10.0ms  grant= 9.0ms (level 0)
	//   t= 20.0ms  grant= 4.0ms (level 5)
	//   t= 30.0ms  grant= 4.0ms (level 5)
	//   t= 40.0ms  grant= 3.0ms (level 6)
	//   t= 50.0ms  grant= 3.0ms (level 6)
	//   t= 60.0ms  grant= 2.0ms (level 7)
	//   t= 70.0ms  grant= 2.0ms (level 7)
	//   t= 80.0ms  grant= 2.0ms (level 7)
	//   t= 90.0ms  grant= 2.0ms (level 7)
	//   t=100.0ms  grant= 2.0ms (level 7)
	//   t=110.0ms  grant= 2.0ms (level 7)
	//
	// deadline misses: 0 — guarantees held through every admission
}

// §5.3: a user studies DVD multimedia while waiting for a call. The
// quiescent modem holds an admission reservation but uses nothing, so
// the DVD runs at its maximum; when the call arrives the modem wakes,
// cannot be denied, and the Policy Box makes the DVD take the cut
// while audio stays whole (§4.3).
func ExampleQuiescent() {
	box := policy.NewBox()
	video, audio, modem := box.Register("dvd"), box.Register("ac3"), box.Register("modem")
	for _, shares := range []policy.Ranking{
		{video: 70, audio: 12, modem: 10},
		{video: 80, audio: 12},
	} {
		if err := box.SetDefault(policy.Policy{Shares: shares}); err != nil {
			log.Fatal(err)
		}
	}

	rec := trace.New()
	d := core.New(core.Config{PolicyBox: box, Observer: rec})
	q, err := workload.Quiescent(d, 500*ms)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("before the call (modem quiescent):")
	printGrants(d)
	d.Run(ticks.FromSeconds(1))
	if err := q.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter the call (modem active, dvd shed):")
	printGrants(d)

	q.AC3.Flush()
	fmt.Println("\nquality across the transition:")
	fmt.Printf("  ac3:   %s  (audio stays intact)\n", q.AC3.Stats().QualityString())
	fmt.Printf("  modem: %s (answered promptly)\n", q.Modem.Stats().QualityString())
	dvd := rec.AllocationSeries(q.DVD)
	fmt.Printf("  dvd allocation: %.1fms -> %.1fms per 10ms period\n",
		dvd[0].CPU.MillisecondsF(), dvd[len(dvd)-1].CPU.MillisecondsF())
	fmt.Printf("\ndeadline misses: %d — no task was terminated or disturbed\n", rec.MissCount())
	// Output:
	// before the call (modem quiescent):
	//   task 1: period=270000 cpu=229500 rate=85.0% fn=DecodeDVD
	//   task 2: period=864000 cpu=103680 rate=12.0% fn=DecodeAC3
	//   total 97.0% of CPU
	//
	// after the call (modem active, dvd shed):
	//   task 1: period=270000 cpu=189000 rate=70.0% fn=DecodeDVD
	//   task 2: period=864000 cpu=103680 rate=12.0% fn=DecodeAC3
	//   task 3: period=270000 cpu=27000 rate=10.0% fn=Modem
	//   total 92.0% of CPU
	//
	// quality across the transition:
	//   ac3:   frames=31 dropouts=0  (audio stays intact)
	//   modem: serviced=50 overruns=0 (answered promptly)
	//   dvd allocation: 8.5ms -> 7.0ms per 10ms period
	//
	// deadline misses: 0 — no task was terminated or disturbed
}

func printGrants(d *core.Distributor) {
	gs := d.Grants()
	for _, id := range gs.IDs() {
		fmt.Printf("  %v\n", gs[id])
	}
	fmt.Printf("  total %.1f%% of CPU\n", 100*gs.TotalFrac().Float())
}
