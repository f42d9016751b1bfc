package rm

import (
	"errors"
	"testing"

	"repro/internal/resource"
	"repro/internal/task"
)

// fullManager admits five 18% tasks (90% of the CPU) and returns the
// Manager with a sixth 18% task that it must refuse on the CPU check.
func fullManager(t testing.TB) (*Manager, *task.Task) {
	m := New(Config{})
	big := task.SingleLevel(270_000, 48_600, "Hog") // 18%
	for i := 0; i < 5; i++ {
		if _, err := m.RequestAdmittance(newTask(string(rune('a'+i)), big)); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	return m, newTask("f", big)
}

// A CPU or Streamer refusal is an *AdmissionError that matches its
// dimension's sentinel, and only that one, and whose text is the
// message admission has always given.
func TestAdmissionErrorTypedAndFormatted(t *testing.T) {
	m, refused := fullManager(t)
	_, cpuErr := m.RequestAdmittance(refused)

	s := New(Config{Streamer: resource.Capacity{StreamerMBps: 100}})
	l := streamList(30, 20, 80, 60) // minimum demands 60 MB/s
	if _, err := s.RequestAdmittance(newTask("a", l)); err != nil {
		t.Fatal(err)
	}
	_, streamErr := s.RequestAdmittance(newTask("b", l))

	for _, c := range []struct {
		name       string
		err        error
		is, isNot  error
		streamer   bool
		wantString string
	}{
		{"cpu", cpuErr, ErrAdmissionDenied, ErrStreamerDenied, false,
			"rm: admission denied: insufficient resources for minimum grants: min sum would be 1.0800 of 1.0000 schedulable"},
		{"streamer", streamErr, ErrStreamerDenied, ErrAdmissionDenied, true,
			"rm: admission denied: insufficient Data Streamer bandwidth for minimum grants: min demands would be 120 of 100 MB/s"},
	} {
		var ae *AdmissionError
		if !errors.As(c.err, &ae) {
			t.Fatalf("%s: err = %#v, want *AdmissionError", c.name, c.err)
		}
		if ae.Streamer != c.streamer {
			t.Errorf("%s: Streamer = %v, want %v", c.name, ae.Streamer, c.streamer)
		}
		if !errors.Is(c.err, c.is) || errors.Is(c.err, c.isNot) {
			t.Errorf("%s: errors.Is(%v) = %v, errors.Is(%v) = %v; want true, false",
				c.name, c.is, errors.Is(c.err, c.is), c.isNot, errors.Is(c.err, c.isNot))
		}
		if got := c.err.Error(); got != c.wantString {
			t.Errorf("%s: Error() =\n  %q\nwant\n  %q", c.name, got, c.wantString)
		}
	}
}

// A refused admission costs the comparison and the error value: it
// allocates at most once, copies nothing of the task, and leaves the
// Manager's sums as they were.
func TestRefusedAdmissionAllocatesAtMostOnce(t *testing.T) {
	m, refused := fullManager(t)
	before := m.MinSum()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.RequestAdmittance(refused); err == nil {
			t.Fatal("a full Manager admitted the probe")
		}
	})
	if allocs > 1 {
		t.Errorf("refused RequestAdmittance: %.1f allocs, want <= 1", allocs)
	}
	if m.NTasks() != 5 || m.MinSum() != before {
		t.Errorf("refusals changed the Manager: %d tasks, min sum %v (was %v)", m.NTasks(), m.MinSum(), before)
	}
}
