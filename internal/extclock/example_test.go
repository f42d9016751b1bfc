package extclock_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/task"
	"repro/internal/ticks"
)

// §5.4 the realistic way: a display paced by an external 100 Hz
// crystal drifting against the scheduling clock. The task can only
// read both clocks, so it estimates the skew from paired readings and
// stretches its periods with InsertIdleCycles (postpone-only) to stay
// phase-locked; the oracle PhaseLock only scores it. An uncompensated
// control run is shown for contrast.
func ExampleEstimatingPhaseLock() {
	const ms = ticks.PerMillisecond
	const driftPPM = 140.0
	extPeriod := ticks.Ticks(270_000) // one frame in external ticks
	nominal := ticks.Ticks(269_200)   // run slightly short; stretch to fit

	fmt.Printf("external refresh crystal: 100 Hz, drifting %+.0f ppm\n", driftPPM)
	fmt.Printf("task period: nominal %d ticks, stretched per period\n\n", nominal)

	for _, compensate := range []bool{false, true} {
		ext := extclock.New(driftPPM, 0)
		oracle, err := extclock.NewPhaseLock(ext, extPeriod, nominal)
		if err != nil {
			log.Fatal(err)
		}
		lock, err := extclock.NewEstimatingPhaseLock(extPeriod, nominal, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		d := core.New(core.Config{Seed: 9})

		var id task.ID
		var maxErr ticks.Ticks
		var insertErr error
		periods := 0
		body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				periods++
				if periods > 5 { // skip estimator warm-up
					if e := oracle.PhaseErrorAt(ctx.PeriodStart); e > maxErr {
						maxErr = e
					}
				}
				// All the app can do: read both clocks now.
				lock.Observe(ctx.Now, ext.ReadAt(ctx.Now))
				if compensate && insertErr == nil {
					insertErr = d.InsertIdleCycles(id, lock.Insertion(ctx.PeriodStart, ctx.Now, ext.ReadAt(ctx.Now)))
				}
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		})
		id, err = d.RequestAdmittance(&task.Task{
			Name: "display",
			List: task.SingleLevel(nominal, 2*ms, "Refresh"),
			Body: body,
		})
		if err != nil {
			log.Fatal(err)
		}
		// A second real-time task shares the machine; phase locking
		// must not disturb it.
		worker, err := d.RequestAdmittance(&task.Task{
			Name: "worker",
			List: task.SingleLevel(10*ms, 4*ms, "Work"),
			Body: task.PeriodicWork(4 * ms),
		})
		if err != nil {
			log.Fatal(err)
		}

		d.Run(10 * ticks.PerSecond)
		if insertErr != nil {
			log.Fatal(insertErr)
		}

		mode := "uncompensated"
		if compensate {
			mode = "estimator-locked"
		}
		wst, _ := d.Stats(worker)
		fmt.Printf("%-17s %4d periods, max phase error %8.1f us, drift estimate %+6.1f ppm, worker misses %d\n",
			mode, periods, maxErr.MicrosecondsF(), lock.Rate(), wst.Misses)
	}

	fmt.Println("\nuncompensated drift accumulates to a full dropped/duplicated frame;")
	fmt.Println("the estimator lock holds every period start on a boundary using only")
	fmt.Println("clock readings, and the postpone-only rule protects the other task.")
	// Output:
	// external refresh crystal: 100 Hz, drifting +140 ppm
	// task period: nominal 269200 ticks, stretched per period
	//
	// uncompensated     1003 periods, max phase error   4996.7 us, drift estimate +138.9 ppm, worker misses 0
	// estimator-locked  1001 periods, max phase error      0.1 us, drift estimate +140.6 ppm, worker misses 0
	//
	// uncompensated drift accumulates to a full dropped/duplicated frame;
	// the estimator lock holds every period start on a boundary using only
	// clock readings, and the postpone-only rule protects the other task.
}
