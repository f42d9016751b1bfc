package telemetry

import (
	"strings"
	"testing"

	"repro/internal/ticks"
)

// FuzzReadManifest feeds arbitrary bytes through the manifest reader.
// Anything it accepts must validate, re-serialize, and read back to an
// equivalent document — the round-trip contract rdtrace stitch and the
// smoke gates depend on.
func FuzzReadManifest(f *testing.F) {
	var seed strings.Builder
	if err := sampleManifest().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(seed.String() + seed.String()) // two documents: rejected
	f.Add(`{"schema":"rdtel/v2","seed":1}`)
	f.Add(`{"schema":"rdtel/v1","seed":1}`)
	f.Add(`{"schema":"rdtel/v2","seed":1,"node_count":2,"spans":[` +
		`{"id":1,"cat":"fleet","name":"a","task":-1,"begin":1,"end":1,"node":-1},` +
		`{"id":2,"cat":"admission","name":"b","task":1,"begin":2,"end":2,"node":1,"link":1}]}`)
	f.Add(`{"schema":"rdtel/v999"}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, doc string) {
		m, err := ReadManifest(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; not crashing is the point
		}
		// Accepted implies valid: ReadManifest runs ValidateManifest.
		if err := ValidateManifest(m); err != nil {
			t.Fatalf("ReadManifest accepted an invalid manifest: %v", err)
		}
		var once strings.Builder
		if err := m.WriteJSON(&once); err != nil {
			t.Fatalf("accepted manifest does not re-serialize: %v", err)
		}
		back, err := ReadManifest(strings.NewReader(once.String()))
		if err != nil {
			t.Fatalf("re-serialized manifest does not read back: %v", err)
		}
		var twice strings.Builder
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatal("manifest round trip is not a fixed point")
		}
	})
}

// FuzzManifestWriteJSON builds a manifest from fuzzed strings and
// integers — span, event, task and instrument text, counts and tags —
// and requires WriteJSON to match encoding/json's indented encoding
// byte for byte.
func FuzzManifestWriteJSON(f *testing.F) {
	f.Add("fleet", "admit", "granted <1/2> & more", "fault.fired", "node\x00crash", "sched.deadline.misses", int64(3), int32(-1), uint64(42))
	f.Add("", "", "", "", "", "", int64(0), int32(0), uint64(0))
	f.Add("\xff\xfe", "line\u2028sep\u2029", "\b\f\n\r\t\x01\x1f", "é世🎵", `"\`, "\xe4\xb8", int64(-1), int32(7), uint64(1<<63))

	f.Fuzz(func(t *testing.T, cat, name, detail, kind, edetail, iname string, n int64, tag int32, seed uint64) {
		m := NewManifest(seed)
		m.Build, m.ConfigDigest = name, detail
		m.HorizonTicks = ticks.Ticks(n)
		m.Node, m.NodeCount = tag, int(n%1024)
		count := int(uint64(n) % 8)
		m.Tasks = []TaskInfo{{ID: n, Name: iname, Node: tag}}
		m.Metrics = Snapshot{
			Counters: []CounterSnap{{Name: iname, Value: n}},
			Gauges:   []GaugeSnap{{Name: iname, Value: -n, Max: n}},
		}
		if n%3 != 0 { // n%3 == 0 leaves Histograms nil
			h := HistSnap{Name: iname, Width: n, Sum: n, Count: int64(count)}
			if n%2 != 0 { // even n leaves Counts nil
				h.Counts = make([]int64, count)
				for i := range h.Counts {
					h.Counts[i] = n - int64(i)
				}
			}
			m.Metrics.Histograms = []HistSnap{h}
		}
		for i := 0; i < count; i++ {
			m.Spans = append(m.Spans, Span{
				ID: SpanID(i + 1), Parent: SpanID(i), Cat: cat, Name: name, Task: n,
				Begin: ticks.Ticks(n), End: ticks.Ticks(n + int64(i)), Detail: detail,
				Node: tag, Link: SpanID(tag), LinkNode: tag * int32(i%2),
			})
			m.Events = append(m.Events, LogEvent{At: ticks.Ticks(n), Kind: kind, Detail: edetail})
		}
		if count > 0 {
			m.FlightDumps = []FlightDump{{
				Node: tag, Reason: kind, At: ticks.Ticks(n), SpansTotal: n, SpansDropped: -n,
				EventsTotal: int64(count), Spans: m.Spans[count/2:], Events: m.Events[:count/2],
			}}
		}
		m.DeriveTotals()
		requireOracle(t, m)
	})
}
