package workload

import (
	"fmt"

	"repro/internal/extclock"
	"repro/internal/task"
	"repro/internal/ticks"
)

// This file defines, once, the task sets the paper's evaluation rests
// on: Table 4's set-top box, the Figure 4 threads, the Table 6 /
// Figure 5 staircase, §5.3's DVD with a quiescent modem, §5.4's
// display locked to a drifting clock and §3.5's 120% MPEG mix. rdsim,
// rdbench, the sweep and the examples all build them here; the
// Distributor's configuration, observers, Policy Box and cost model
// stay with the caller.
//
// Each builder admits its tasks through a Host, in a fixed order, and
// returns a handle holding the task IDs and the workload models whose
// stats callers print. A builder that schedules steps for later (an
// arrival, a wake) reports their first failure through the handle's
// Err once the run is over, instead of failing inside the kernel.

const ms = ticks.PerMillisecond

// SettopTasks is the admitted Table 4 set.
type SettopTasks struct {
	Modem *Modem
	G3D   *Graphics3D
	MPEG  *MPEG

	ModemID, G3DID, MPEGID task.ID
}

// Settop admits Table 4's set-top box — the modem, the 3D renderer and
// the MPEG decoder, in that order — the run behind Figure 3. g3dSeed
// seeds the renderer's scene costs.
func Settop(h Host, g3dSeed uint64) (*SettopTasks, error) {
	s := &SettopTasks{Modem: NewModem(), G3D: NewGraphics3D(g3dSeed), MPEG: NewMPEG()}
	var err error
	if s.ModemID, err = h.RequestAdmittance(s.Modem.Task(false)); err != nil {
		return nil, err
	}
	if s.G3DID, err = h.RequestAdmittance(s.G3D.Task()); err != nil {
		return nil, err
	}
	if s.MPEGID, err = h.RequestAdmittance(s.MPEG.Task()); err != nil {
		return nil, err
	}
	return s, nil
}

// sporadicServer admits the Sporadic Server of §6.5's runs: 1% of a
// 100 ms period, always asking for overtime.
func sporadicServer(h Host) (task.ID, error) {
	return h.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true)
}

// Figure4Tasks is the admitted §6.5 first run.
type Figure4Tasks struct {
	Server  task.ID
	Threads [4]task.ID // producer7, data8, producer9, data10
}

// Figure4 admits the §6.5 first run: the Sporadic Server plus four
// periodic threads at 1/30 s with 13/2/3/3 ms maxima. Producer 7
// never finishes and soaks unused time as overtime; the data threads
// busy-wait their grants (the application bug fig4fix repairs).
func Figure4(h Host) (*Figure4Tasks, error) {
	period := ticks.PerSecond / 30
	f := &Figure4Tasks{}
	var err error
	if f.Server, err = sporadicServer(h); err != nil {
		return nil, err
	}
	for i, t := range []*task.Task{
		{Name: "producer7", List: task.SingleLevel(period, 13*ms, "P"), Body: task.Busy()},
		{Name: "data8", List: task.SingleLevel(period, 2*ms, "D"), Body: task.BusyYield()},
		{Name: "producer9", List: task.SingleLevel(period, 3*ms, "P"), Body: task.PeriodicWork(3 * ms)},
		{Name: "data10", List: task.SingleLevel(period, 3*ms, "D"), Body: task.BusyYield()},
	} {
		if f.Threads[i], err = h.RequestAdmittance(t); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// StaircaseTasks is the Figure 5 run: the server at once, the Table 6
// threads as they arrive.
type StaircaseTasks struct {
	Server  task.ID
	Threads [5]task.ID // thread2 .. thread6, each set on arrival
	err     error
}

// IDs lists the server, then the threads: Figure 5's column order.
func (s *StaircaseTasks) IDs() []task.ID { return append([]task.ID{s.Server}, s.Threads[:]...) }

// Err reports the first arrival the Host refused.
func (s *StaircaseTasks) Err() error { return s.err }

// Figure5Arrivals is the paper's schedule: one thread every 20 ms.
func Figure5Arrivals() [5]ticks.Ticks { return [5]ticks.Ticks{0, 20 * ms, 40 * ms, 60 * ms, 80 * ms} }

// Staircase admits the Figure 5 overload run: the Sporadic Server now,
// then five Table 6 BusyLoop threads, thread2..thread6, at the given
// arrival times. With no stored policy the Box invents even splits,
// and thread2's allocation steps 9 -> 4 -> 3 -> 2 -> 2 ms.
func Staircase(h Host, arrivals [5]ticks.Ticks) (*StaircaseTasks, error) {
	s := &StaircaseTasks{}
	var err error
	if s.Server, err = sporadicServer(h); err != nil {
		return nil, err
	}
	for i, at := range arrivals {
		h.At(at, func() {
			id, err := h.RequestAdmittance(BusyLoopTask(fmt.Sprintf("thread%d", i+2)))
			if err != nil && s.err == nil {
				s.err = fmt.Errorf("workload: staircase thread%d: %w", i+2, err)
			}
			s.Threads[i] = id
		})
	}
	return s, nil
}

// QuiescentTasks is the admitted §5.3 set.
type QuiescentTasks struct {
	AC3   *AC3
	Modem *Modem

	DVD, AC3ID, ModemID task.ID
	err                 error
}

// Err reports a failed wake of the modem.
func (q *QuiescentTasks) Err() error { return q.err }

// Quiescent admits §5.3's telephone-answering set: a DVD decoder
// shedding from 85% to 40% of a 10 ms period, AC3 audio, and the
// modem, admitted quiescent and woken at wakeAt — the phone ringing.
// A woken task cannot be denied.
func Quiescent(h Host, wakeAt ticks.Ticks) (*QuiescentTasks, error) {
	q := &QuiescentTasks{AC3: NewAC3(), Modem: NewModem()}
	var err error
	if q.DVD, err = h.RequestAdmittance(&task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ms, "DecodeDVD", 85, 70, 55, 40),
		Body: task.BusyYield(),
	}); err != nil {
		return nil, err
	}
	if q.AC3ID, err = h.RequestAdmittance(q.AC3.Task()); err != nil {
		return nil, err
	}
	if q.ModemID, err = h.RequestAdmittance(q.Modem.Task(true)); err != nil {
		return nil, err
	}
	h.At(wakeAt, func() {
		if err := h.Wake(q.ModemID); err != nil {
			q.err = fmt.Errorf("workload: wake quiescent modem: %w", err)
		}
	})
	return q, nil
}

// LockedDisplay is the admitted §5.4 display task and its phase
// accounting, updated as the run goes.
type LockedDisplay struct {
	ID            task.ID
	Periods       int
	MaxPhaseError ticks.Ticks // against the external clock, first period excluded
	err           error
}

// Err reports the first idle-cycle insertion the Host refused.
func (l *LockedDisplay) Err() error { return l.err }

// DisplayDriftPPM is how fast PhaseLockedDisplay's external crystal
// runs against the scheduling clock.
const DisplayDriftPPM = 120.0

// PhaseLockedDisplay admits §5.4's display: a 2 ms refresh whose
// 100 Hz boundaries come from an external crystal drifting +120 ppm
// against the scheduling clock. Its nominal period, 269,500 ticks, is
// a little short of the crystal's 270,000; with compensate set it
// stretches each period with InsertIdleCycles, as computed by the
// oracle PhaseLock, to start on the next external boundary.
func PhaseLockedDisplay(h Host, compensate bool) (*LockedDisplay, error) {
	const nominal ticks.Ticks = 269_500
	pl, err := extclock.NewPhaseLock(extclock.New(DisplayDriftPPM, 0), 270_000, nominal)
	if err != nil {
		return nil, err
	}
	l := &LockedDisplay{}
	body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			l.Periods++
			if e := pl.PhaseErrorAt(ctx.PeriodStart); e > l.MaxPhaseError && l.Periods > 1 {
				l.MaxPhaseError = e
			}
			if compensate {
				if err := h.InsertIdleCycles(l.ID, pl.Insertion(ctx.PeriodStart)); err != nil && l.err == nil {
					l.err = err
				}
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
	if l.ID, err = h.RequestAdmittance(&task.Task{
		Name: "display", List: task.SingleLevel(nominal, 2*ms, "Refresh"), Body: body,
	}); err != nil {
		return nil, err
	}
	return l, nil
}

// MPEGMixTasks is §3.5's 120% mix: the MPEG decoder (a third of the
// CPU) against three workers wanting 30% each.
type MPEGMixTasks struct {
	MPEG  *MPEG
	Names []string // mpeg, w1, w2, w3, in admission order
}

func newMPEGMix() *MPEGMixTasks {
	return &MPEGMixTasks{MPEG: NewMPEG(), Names: []string{"mpeg", "w1", "w2", "w3"}}
}

// MPEGMix admits the §3.5 mix to an RD host. The workers present
// honest shed menus (30% or 20% of a 10 ms period), so the Box sheds
// by policy and the decoder keeps every I frame.
func MPEGMix(h Host) (*MPEGMixTasks, error) {
	m := newMPEGMix()
	if _, err := h.RequestAdmittance(m.MPEG.Task()); err != nil {
		return nil, err
	}
	for _, n := range m.Names[1:] {
		if _, err := h.RequestAdmittance(&task.Task{
			Name: n,
			List: task.UniformLevels(10*ms, "W", 30, 20),
			Body: task.BusyYield(),
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MPEGMixOn adds the §3.5 mix to a comparator at equal weights: the
// decoder at its 30 fps frame period, each worker doing 3 ms of every
// 10 ms. Everyone gets a fair fraction, and frames die by accident of
// timing.
func MPEGMixOn(c Comparator) *MPEGMixTasks {
	m := newMPEGMix()
	c.Add("mpeg", MPEGList()[0].Period, 1, m.MPEG)
	for _, n := range m.Names[1:] {
		c.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
	}
	return m
}
