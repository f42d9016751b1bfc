package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/ticks"
)

// Perfetto/chrome://tracing export: a Manifest's spans become Chrome
// trace-event JSON (the "JSON Array Format" with a traceEvents
// wrapper). Tasks render as named threads of one process; period/grant
// windows render as async slices over those tracks; dispatch slices as
// complete ("X") events; distributor-level decisions (admission,
// policy, governor, degrade, fault) as instants on a control track;
// the final counter snapshot as counter ("C") steps at the horizon.
//
// A stitched cluster manifest renders multi-track: one process per
// fleet node plus one for the coordinator, and every cross-node causal
// link becomes a flow event pair ("s" at the predecessor, "f" at the
// successor), so a migrated guarantee draws as one arrow-connected
// chain across node tracks.
//
// Times convert from 27 MHz ticks to the microseconds Chrome expects.

// traceEvent is one Chrome trace-event record. Args is a map, which
// encoding/json marshals with sorted keys — deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON document.
type perfettoFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const (
	perfettoPid  = 1
	controlTid   = 1  // distributor-level decisions
	taskTidBase  = 10 // task tracks start here: tid = taskTidBase + task ID
	instantScope = "t"

	flowName = "causal"
	flowCat  = "fleet-link"
)

func usec(t ticks.Ticks) float64 { return float64(t) / float64(ticks.PerMicrosecond) }

func tidOf(task int64) int64 {
	if task == NoTask {
		return controlTid
	}
	return taskTidBase + task
}

// pidOf maps a span node tag to its Perfetto process: the coordinator
// (and untagged single-node spans) is pid 1, node i is pid 2+i.
func pidOf(tag int32) int {
	if idx, ok := TagIndex(tag); ok {
		return perfettoPid + 1 + idx
	}
	return perfettoPid
}

// WritePerfetto renders a manifest as Chrome trace-event JSON. Event
// order is deterministic: metadata (processes, then threads by pid and
// tid), spans in record order, flow pairs in successor-span order,
// counters by name.
func WritePerfetto(w io.Writer, m *Manifest) error {
	events := make([]traceEvent, 0, 2*len(m.Spans)+len(m.Tasks)+len(m.Metrics.Counters)+2)

	if m.NodeCount > 0 {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pidOf(CoordTag), Tid: 0,
			Args: map[string]any{"name": "cluster coordinator"},
		})
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(CoordTag), Tid: controlTid,
			Args: map[string]any{"name": "coordinator"},
		})
		for i := 0; i < m.NodeCount; i++ {
			events = append(events, traceEvent{
				Name: "process_name", Ph: "M", Pid: pidOf(NodeTag(i)), Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("node %d", i)},
			})
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pidOf(NodeTag(i)), Tid: controlTid,
				Args: map[string]any{"name": "distributor"},
			})
		}
	} else {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: perfettoPid, Tid: 0,
			Args: map[string]any{"name": "resource distributor"},
		})
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: controlTid,
			Args: map[string]any{"name": "distributor"},
		})
	}
	tasks := append([]TaskInfo(nil), m.Tasks...)
	sort.Slice(tasks, func(i, j int) bool {
		pi, pj := pidOf(tasks[i].Node), pidOf(tasks[j].Node)
		if pi != pj {
			return pi < pj
		}
		return tasks[i].ID < tasks[j].ID
	})
	for _, t := range tasks {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(t.Node), Tid: tidOf(t.ID),
			Args: map[string]any{"name": fmt.Sprintf("%s (task %d)", t.Name, t.ID)},
		})
	}

	for _, sp := range m.Spans {
		pid := pidOf(sp.Node)
		tid := tidOf(sp.Task)
		args := map[string]any{}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.Parent != 0 {
			args["parent"] = int64(sp.Parent)
		}
		if sp.Link != 0 {
			args["link"] = int64(sp.Link)
		}
		if len(args) == 0 {
			args = nil
		}
		switch {
		case sp.Begin == sp.End:
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "i", Ts: usec(sp.Begin),
				Pid: pid, Tid: tid, S: instantScope, Args: args,
			})
		case sp.Cat == "period":
			// Grant/period windows overlap their own dispatch slices, so
			// they render as async slices rather than stacked X events.
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "b", Ts: usec(sp.Begin),
				Pid: pid, Tid: tid, ID: int64(sp.ID), Args: args,
			})
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "e", Ts: usec(sp.End),
				Pid: pid, Tid: tid, ID: int64(sp.ID),
			})
		default:
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X", Ts: usec(sp.Begin),
				Dur: usec(sp.End - sp.Begin), Pid: pid, Tid: tid, Args: args,
			})
		}
	}

	// Flow pairs for resolved causal links (stitched manifests: Link is
	// a global span ID). The flow id is the successor's span ID — each
	// span carries at most one inbound link, so it is unique. Pre-stitch
	// cross-log links (LinkNode != 0) cannot be drawn within one file
	// and are skipped.
	if len(m.Spans) > 0 {
		byID := make(map[SpanID]*Span, len(m.Spans))
		for i := range m.Spans {
			byID[m.Spans[i].ID] = &m.Spans[i]
		}
		for i := range m.Spans {
			sp := &m.Spans[i]
			if sp.Link == 0 || sp.LinkNode != 0 {
				continue
			}
			target, ok := byID[sp.Link]
			if !ok {
				continue
			}
			fTs := usec(sp.Begin)
			sTs := usec(target.Begin)
			if sTs > fTs {
				sTs = fTs // flows may not run backwards in time
			}
			events = append(events, traceEvent{
				Name: flowName, Cat: flowCat, Ph: "s", Ts: sTs,
				Pid: pidOf(target.Node), Tid: tidOf(target.Task), ID: int64(sp.ID),
			})
			events = append(events, traceEvent{
				Name: flowName, Cat: flowCat, Ph: "f", Bp: "e", Ts: fTs,
				Pid: pidOf(sp.Node), Tid: tidOf(sp.Task), ID: int64(sp.ID),
			})
		}
	}

	horizon := usec(m.HorizonTicks)
	for _, c := range m.Metrics.Counters {
		events = append(events, traceEvent{
			Name: c.Name, Ph: "C", Ts: horizon, Pid: perfettoPid, Tid: 0,
			Args: map[string]any{"value": c.Value},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(perfettoFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidatePerfetto decodes Chrome trace-event JSON and checks the
// structural rules Perfetto relies on: one JSON document with only
// whitespace after it, a traceEvents array, a known phase on every
// event, non-negative times and durations, matching b/e pairs per
// (cat, id), and matching s/f flow pairs per (cat, id) with no step or
// finish before its start. telemetry-smoke and flight-smoke run it
// over the exported artifacts.
func ValidatePerfetto(r io.Reader) error {
	var f perfettoFile
	if err := decodeOne(r, &f); err != nil {
		return fmt.Errorf("telemetry: perfetto: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: perfetto: no traceEvents")
	}
	open := map[string]int{}
	flows := map[string]int{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M", "X", "i", "C":
		case "b":
			open[fmt.Sprintf("%s/%d", e.Cat, e.ID)]++
		case "e":
			key := fmt.Sprintf("%s/%d", e.Cat, e.ID)
			if open[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d ends async %s with no begin", i, key)
			}
			open[key]--
		case "s":
			flows[fmt.Sprintf("%s/%d", e.Cat, e.ID)]++
		case "t":
			key := fmt.Sprintf("%s/%d", e.Cat, e.ID)
			if flows[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d steps flow %s with no start", i, key)
			}
		case "f":
			key := fmt.Sprintf("%s/%d", e.Cat, e.ID)
			if flows[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d finishes flow %s with no start", i, key)
			}
			flows[key]--
		default:
			return fmt.Errorf("telemetry: perfetto: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			return fmt.Errorf("telemetry: perfetto: event %d has negative time", i)
		}
	}
	if err := checkClosed(open, "async"); err != nil {
		return err
	}
	return checkClosed(flows, "flow")
}

// checkClosed reports the name-sorted first entry of a pairing map
// that was begun but never finished.
func checkClosed(m map[string]int, kind string) error {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if m[key] != 0 {
			return fmt.Errorf("telemetry: perfetto: %s %s left open", kind, key)
		}
	}
	return nil
}
