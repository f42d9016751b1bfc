package workload

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
)

var _ Host = (*core.Distributor)(nil)

func TestSettopZeroMissesUnderPaperCosts(t *testing.T) {
	// Figure 3's guarantee under the stochastic §6.1 switch costs:
	// every admitted grant is delivered in every period.
	rec := trace.New()
	costs := sim.PaperSwitchCosts()
	d := core.New(core.Config{SwitchCosts: &costs, Observer: rec})
	if _, err := Settop(d, 42); err != nil {
		t.Fatal(err)
	}
	d.Run(5 * ticks.PerSecond)
	if n := rec.MissCount(); n != 0 {
		t.Errorf("Table 4 set missed %d deadlines over 5s", n)
	}
}

func TestSettopWithinLatencyBound(t *testing.T) {
	// §4.2: "the maximum guaranteed latency for a task is twice its
	// period minus twice its CPU requirement".
	rec := trace.New()
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	if _, err := Settop(d, 42); err != nil {
		t.Fatal(err)
	}
	d.Run(5 * ticks.PerSecond)
	rep := trace.Analyze(rec.Export())
	checked := 0
	for _, g := range d.Grants() {
		for _, tr := range rep.Tasks {
			if tr.ID != g.Task {
				continue
			}
			checked++
			if bound := 2*g.Entry.Period - 2*g.Entry.CPU; tr.WorstLatency > bound {
				t.Errorf("%s worst latency %v exceeds 2P-2C = %v", tr.Name, tr.WorstLatency, bound)
			}
		}
	}
	if checked != 3 {
		t.Errorf("checked %d of the 3 Table 4 tasks", checked)
	}
}

// fakeHost admits everything, queues scheduled steps for the test to
// fire, and fails every Wake and every admission after the first
// admit admissions.
type fakeHost struct {
	admit int
	steps []func()
	next  task.ID
}

var errRefused = errors.New("refused")

func (f *fakeHost) At(_ ticks.Ticks, fn func())                 { f.steps = append(f.steps, fn) }
func (f *fakeHost) Wake(task.ID) error                          { return errRefused }
func (f *fakeHost) InsertIdleCycles(task.ID, ticks.Ticks) error { return errRefused }
func (f *fakeHost) RequestAdmittance(*task.Task) (task.ID, error) {
	if int(f.next) >= f.admit {
		return task.NoID, errRefused
	}
	f.next++
	return f.next, nil
}
func (f *fakeHost) AddSporadicServer(string, task.ResourceList, bool) (task.ID, error) {
	return f.RequestAdmittance(nil)
}

func (f *fakeHost) fire() {
	for _, fn := range f.steps {
		fn()
	}
}

func TestQuiescentWakeFailureComesBackThroughHandle(t *testing.T) {
	h := &fakeHost{admit: 3}
	q, err := Quiescent(h, 500*ms)
	if err != nil {
		t.Fatal(err)
	}
	if q.Err() != nil {
		t.Fatalf("Err before the wake = %v", q.Err())
	}
	h.fire()
	if !errors.Is(q.Err(), errRefused) {
		t.Errorf("Err after a failed wake = %v, want the Host's error", q.Err())
	}
}

func TestStaircaseRefusedArrivalComesBackThroughHandle(t *testing.T) {
	h := &fakeHost{admit: 3} // the server and two threads
	s, err := Staircase(h, Figure5Arrivals())
	if err != nil {
		t.Fatal(err)
	}
	h.fire()
	if !errors.Is(s.Err(), errRefused) {
		t.Errorf("Err after a refused arrival = %v, want the Host's error", s.Err())
	}
	if got := s.IDs(); got[2] == task.NoID || got[3] != task.NoID {
		t.Errorf("IDs = %v, want thread2 and thread3 admitted, thread4 refused", got)
	}
}

func TestBuildersReturnAdmissionErrors(t *testing.T) {
	h := &fakeHost{}
	if _, err := Settop(h, 42); !errors.Is(err, errRefused) {
		t.Errorf("Settop: err = %v", err)
	}
	if _, err := Figure4(h); !errors.Is(err, errRefused) {
		t.Errorf("Figure4: err = %v", err)
	}
	if _, err := PhaseLockedDisplay(h, true); !errors.Is(err, errRefused) {
		t.Errorf("PhaseLockedDisplay: err = %v", err)
	}
	if _, err := MPEGMix(h); !errors.Is(err, errRefused) {
		t.Errorf("MPEGMix: err = %v", err)
	}
}
