package sched

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// runInterruptLoad admits four 24% tasks (96% granted under a 4%
// reserve) and runs them for 2s under an interrupt every 1ms with the
// given service time, returning the scheduler and the task IDs.
func runInterruptLoad(t *testing.T, service ticks.Ticks) (*Scheduler, []task.ID) {
	t.Helper()
	_, m, s := newSystem(4, sim.ZeroSwitchCosts())
	ids := make([]task.ID, 0, 4)
	for i := 0; i < 4; i++ {
		ids = append(ids, mustAdmit(t, m, &task.Task{
			Name: string(rune('a' + i)),
			List: task.SingleLevel(10*ms, 24*ms/10, "T"), // 24% each
			Body: task.PeriodicWork(24 * ms / 10),
		}))
	}
	if err := s.AddInterruptLoad(ms, service); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * ticks.PerSecond)
	return s, ids
}

func TestInterruptLoadWithinReserveKeepsGuarantees(t *testing.T) {
	// Interrupt loads up to the reserve (3%, and 4% exactly — the
	// knee of §5.2): the reserve absorbs them and nothing misses.
	for _, us := range []ticks.Ticks{30, 40} {
		t.Run(fmt.Sprintf("%dus", us), func(t *testing.T) {
			s, ids := runInterruptLoad(t, us*ticks.PerMicrosecond)
			for i, id := range ids {
				st, _ := s.Stats(id)
				if st.Misses != 0 {
					t.Errorf("task %d missed %d deadlines under in-reserve interrupt load", i, st.Misses)
				}
				if st.UsedTicks != st.GrantedTicks {
					t.Errorf("task %d: used %v of %v", i, st.UsedTicks, st.GrantedTicks)
				}
			}
		})
	}
}

func TestInterruptLoadBeyondReserveCausesMisses(t *testing.T) {
	// Interrupt loads past the reserve (6%, just beyond the knee, and
	// 8%): the machine is over-committed and deadlines fall — the
	// §5.2 trade-off seen from the other side.
	for _, us := range []ticks.Ticks{60, 80} {
		t.Run(fmt.Sprintf("%dus", us), func(t *testing.T) {
			s, _ := runInterruptLoad(t, us*ticks.PerMicrosecond)
			var misses int64
			for _, id := range s.TaskIDs() {
				st, _ := s.Stats(id)
				misses += st.Misses
			}
			if misses == 0 {
				t.Errorf("%d%% interrupt load over a 4%% reserve produced no misses; over-commit undetected", int64(us)/10)
			}
		})
	}
}

func TestInterruptAccounting(t *testing.T) {
	k, m, s := newSystem(0, sim.ZeroSwitchCosts())
	mustAdmit(t, m, &task.Task{
		Name: "w", List: task.SingleLevel(10*ms, 2*ms, "W"), Body: task.PeriodicWork(2 * ms),
	})
	if err := s.AddInterruptLoad(ms, 50*ticks.PerMicrosecond); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(ticks.PerSecond)
	st := k.Stats()
	if st.Interrupts < 990 || st.Interrupts > 1001 {
		t.Errorf("interrupts = %d over 1s at 1ms cadence, want ~1000", st.Interrupts)
	}
	load := st.InterruptLoadFraction()
	if load < 0.045 || load > 0.055 {
		t.Errorf("interrupt load = %.4f, want ~0.05", load)
	}
}

func TestAddInterruptLoadValidation(t *testing.T) {
	_, _, s := newSystem(0, sim.ZeroSwitchCosts())
	if err := s.AddInterruptLoad(0, 10); err == nil {
		t.Error("zero interval accepted")
	}
	if err := s.AddInterruptLoad(10, 0); err == nil {
		t.Error("zero service accepted")
	}
	if err := s.AddInterruptLoad(10, 10); err == nil {
		t.Error("service >= interval accepted")
	}
}
