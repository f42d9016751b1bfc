package workload

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/ticks"
)

// Modem models the telephone-answering modem of §5.3 and Table 4: a
// fixed 10% of the CPU at a 10 ms period, with no shed levels — a
// modem cannot degrade its line discipline — and the quiescent
// life-cycle: admitted but dormant until a call arrives, at which
// point it cannot be denied service.
type Modem struct {
	stats ModemStats
	work  ticks.Ticks
}

// ModemStats counts serviced periods and overruns.
type ModemStats struct {
	Serviced int
	Overruns int
}

// QualityString summarises for experiment output.
func (s ModemStats) QualityString() string {
	return fmt.Sprintf("serviced=%d overruns=%d", s.Serviced, s.Overruns)
}

// ModemPeriod and ModemWork are Table 4's modem entry: 270,000-tick
// (10 ms) period, 27,000 ticks (10%).
const (
	ModemPeriod ticks.Ticks = 270_000
	ModemWork   ticks.Ticks = 27_000
)

// NewModem returns a fresh modem.
func NewModem() *Modem { return &Modem{work: ModemWork} }

// ModemList is the single-level 10% list.
func ModemList() task.ResourceList {
	return task.SingleLevel(ModemPeriod, ModemWork, "Modem")
}

// Task wraps the modem for admission; quiescent selects the §5.3
// telephone-answering configuration (dormant until Wake).
func (m *Modem) Task(quiescent bool) *task.Task {
	return &task.Task{
		Name:           "modem",
		List:           ModemList(),
		Body:           m,
		Semantics:      task.CallbackSemantics,
		StartQuiescent: quiescent,
	}
}

// Stats returns the accounting.
func (m *Modem) Stats() ModemStats { return m.stats }

// Run implements task.Body.
func (m *Modem) Run(ctx task.RunContext) task.RunResult {
	if ctx.NewPeriod && !ctx.PrevCompleted && ctx.PrevUsed > 0 {
		m.stats.Overruns++
	}
	left := m.work - ctx.UsedThisPeriod
	if left <= 0 {
		return task.RunResult{Op: task.OpYield, Completed: true}
	}
	if left <= ctx.Span {
		m.stats.Serviced++
		return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
	}
	return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
}

// BusyLoopTask builds one Table 6 thread: nine entries from 90% down
// to 10% of a 10 ms period, all running BusyLoop. Figure 5 starts
// five of these 20 ms apart.
func BusyLoopTask(name string) *task.Task {
	return &task.Task{
		Name: name,
		List: task.UniformLevels(270_000, "BusyLoop", 90, 80, 70, 60, 50, 40, 30, 20, 10),
		Body: task.BusyYield(),
	}
}

// CoolDown models the §5.3 cool-down task: quiescent until the
// processor overheats, then a no-op loop at the percentage the
// thermal situation demands.
func CoolDown(percent int) *task.Task {
	if percent <= 0 || percent > 90 {
		percent = 30
	}
	return &task.Task{
		Name:           "cooldown",
		List:           task.UniformLevels(270_000, "NoOpLoop", percent),
		Body:           task.BusyYield(),
		StartQuiescent: true,
	}
}
