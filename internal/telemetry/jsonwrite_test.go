package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ticks"
)

// oracleJSON is the encoder WriteJSON replaced: encoding/json with a
// two-space indent. WriteJSON must match it byte for byte.
func oracleJSON(t testing.TB, m *Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return buf.Bytes()
}

// requireOracle fails the test unless WriteJSON and the oracle agree.
func requireOracle(t testing.TB, m *Manifest) {
	t.Helper()
	var got bytes.Buffer
	if err := m.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want := oracleJSON(t, m)
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("WriteJSON diverges from encoding/json at byte %d\n got: %q\nwant: %q",
			i, got.Bytes()[lo:min(i+40, got.Len())], want[lo:min(i+40, len(want))])
	}
}

// trickyStrings covers every escaping rule of encoding/json's string
// encoder with HTML escaping on.
var trickyStrings = func() []string {
	var ctl []byte
	for b := 0; b < 0x20; b++ {
		ctl = append(ctl, byte(b))
	}
	return []string{
		"", "plain", "<script>&amp;</script>", string(ctl),
		`quote " and back\slash and /slash`, "del \x7f",
		"invalid \xff\xfe utf-8", "truncated \xe4\xb8", "lone continuation \x80x",
		"line\u2028para\u2029sep", "héllo 世界 🎵", "\xed\xa0\x80 surrogate",
	}
}()

// fillReflect sets every exported field reachable from v to a non-zero
// value: strings, signed and unsigned integers, and two-element slices
// of filled structs. A kind it does not know fails the test, so a new
// field type cannot slip past the oracle comparison unfilled.
func fillReflect(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n) + "<&>")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillReflect(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillReflect(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillReflect: unhandled kind %s (%s): teach the test and WriteJSON about it", v.Kind(), v.Type())
	}
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	t.Run("sample", func(t *testing.T) {
		requireOracle(t, sampleManifest())
	})

	t.Run("golden", func(t *testing.T) {
		raw, err := os.ReadFile("testdata/settop-smoke.manifest.golden")
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := m.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Error("rewriting the committed golden manifest changed its bytes")
		}
	})

	t.Run("strings", func(t *testing.T) {
		for _, s := range trickyStrings {
			m := NewManifest(1)
			m.Schema, m.Build, m.ConfigDigest = s, s, s
			m.Tasks = []TaskInfo{{ID: 1, Name: s}}
			m.Metrics = Snapshot{
				Counters:   []CounterSnap{{Name: s}},
				Gauges:     []GaugeSnap{{Name: s}},
				Histograms: []HistSnap{{Name: s}},
			}
			sp := Span{ID: 1, Cat: s, Name: s, Detail: s}
			ev := LogEvent{Kind: s, Detail: s}
			m.Spans = []Span{sp}
			m.Events = []LogEvent{ev}
			m.FlightDumps = []FlightDump{{Reason: s, Spans: []Span{sp}, Events: []LogEvent{ev}}}
			requireOracle(t, m)
		}
	})

	t.Run("nil-empty-extremes", func(t *testing.T) {
		m := NewManifest(math.MaxUint64)
		m.HorizonTicks = math.MinInt64
		m.Node, m.NodeCount = CoordTag, math.MaxInt
		m.Tasks = []TaskInfo{} // empty, non-nil: omitted like nil
		m.Metrics = Snapshot{
			Counters: nil,
			Gauges:   []GaugeSnap{},
			Histograms: []HistSnap{
				{Name: "nil-counts", Width: -1},
				{Name: "empty-counts", Counts: []int64{}},
				{Name: "counts", Counts: []int64{math.MinInt64, 0, math.MaxInt64}},
			},
		}
		m.Spans = []Span{{ID: 1, Task: NoTask, Begin: -5, End: -1, Node: CoordTag, Link: -2, LinkNode: math.MinInt32}}
		m.Events = []LogEvent{}
		m.FlightDumps = []FlightDump{
			{Node: -7, Reason: "r", Spans: []Span{}, Events: nil},
			{Reason: "r2", At: ticks.Ticks(math.MaxInt64), SpansDropped: -1},
		}
		m.Totals = Totals{DeadlineMisses: -1, FlightDumps: -2}
		requireOracle(t, m)
		requireOracle(t, &Manifest{}) // every omitempty field omitted, every slice nil
	})

	t.Run("reflection-filled", func(t *testing.T) {
		var m Manifest
		n := 0
		fillReflect(t, reflect.ValueOf(&m).Elem(), &n)
		requireOracle(t, &m)
	})

	t.Run("synthetic", func(t *testing.T) {
		requireOracle(t, syntheticManifest(3000))
	})
}

// failingWriter accepts ok bytes, then fails every write.
type failingWriter struct {
	ok, writes, afterFail int
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.ok <= 0 {
		w.afterFail++
		return 0, errWriterFull
	}
	n := min(len(p), w.ok)
	w.ok -= n
	if n < len(p) {
		return n, errWriterFull
	}
	return n, nil
}

func TestWriteJSONReturnsWriteError(t *testing.T) {
	m := syntheticManifest(3000)
	w := &failingWriter{ok: 3 * jsonFlushAt / 2}
	if err := m.WriteJSON(w); !errors.Is(err, errWriterFull) {
		t.Fatalf("WriteJSON = %v, want the writer's error", err)
	}
	if w.writes < 2 {
		t.Fatalf("failure came on write %d, want mid-stream", w.writes)
	}
	if w.afterFail != 0 {
		t.Errorf("WriteJSON kept writing %d times after the first error", w.afterFail)
	}
}

// WriteJSON streams: its allocations are its fixed buffer and nothing
// per span, so a 30x larger manifest costs the same allocations.
func TestWriteJSONAllocsIndependentOfSize(t *testing.T) {
	small, large := syntheticManifest(300), syntheticManifest(10_000)
	allocs := func(m *Manifest) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := m.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("allocs/op: %v spans -> %v, %v spans -> %v; want equal", 300, a, 10_000, b)
	}
}

// syntheticManifest builds a fixed cluster-shaped manifest: spans of
// every fleet category with parents, details, node tags and links,
// an event log, and two flight dumps.
func syntheticManifest(spans int) *Manifest {
	cats := [...]string{"period", "dispatch", "admission", "policy", "fleet"}
	mkSpan := func(i int) Span {
		id := SpanID(i + 1)
		sp := Span{
			ID: id, Cat: cats[i%len(cats)], Name: "task-" + strconv.Itoa(i%97),
			Task: int64(i%97) - 1, Begin: ticks.Ticks(i) * 27_000, End: ticks.Ticks(i)*27_000 + 2_700,
			Node: NodeTag(i % 120),
		}
		if i%3 != 0 {
			sp.Parent = id - 1
		}
		if i%7 == 0 {
			sp.Detail = "granted level 2 of 3 <" + strconv.Itoa(i) + ">"
		}
		if i%11 == 0 && i > 0 {
			sp.Link = id - 1
		}
		return sp
	}
	mkEvent := func(i int) LogEvent {
		return LogEvent{At: ticks.Ticks(i) * 1000, Kind: "fleet.admit", Detail: "node " + strconv.Itoa(i%120)}
	}
	m := NewManifest(1)
	m.Build, m.ConfigDigest, m.HorizonTicks, m.NodeCount = "bench", "0123456789abcdef", 27_000_000, 120
	for i := 0; i < 97; i++ {
		m.Tasks = append(m.Tasks, TaskInfo{ID: int64(i), Name: "task-" + strconv.Itoa(i), Node: NodeTag(i % 120)})
	}
	m.Metrics = Snapshot{
		Counters:   []CounterSnap{{Name: "fleet.admit", Value: 97}, {Name: "sched.deadline.misses"}},
		Gauges:     []GaugeSnap{{Name: "fleet.nodes.up", Value: 119, Max: 120}},
		Histograms: []HistSnap{{Name: "sim.switch.cost", Width: 5, Counts: []int64{1, 2, 3, 0}, Sum: 14, Count: 6}},
	}
	for i := 0; i < spans; i++ {
		m.Spans = append(m.Spans, mkSpan(i))
	}
	for i := 0; i < spans/10; i++ {
		m.Events = append(m.Events, mkEvent(i))
	}
	for d := 0; d < 2; d++ {
		dump := FlightDump{Node: NodeTag(d), Reason: "node-crash", At: ticks.Ticks(d+1) * 1_000_000,
			SpansTotal: 4096, SpansDropped: 4096 - 512, EventsTotal: 256, EventsDropped: 128}
		for i := 0; i < 512; i++ {
			dump.Spans = append(dump.Spans, mkSpan(4096-512+i))
		}
		for i := 0; i < 128; i++ {
			dump.Events = append(dump.Events, mkEvent(i))
		}
		m.FlightDumps = append(m.FlightDumps, dump)
	}
	m.DeriveTotals()
	return m
}

// BenchmarkManifestWriteJSON encodes a fixed 10k-span cluster-shaped
// manifest to io.Discard. bench-smoke gates its allocs/op and B/op.
func BenchmarkManifestWriteJSON(b *testing.B) {
	m := syntheticManifest(10_000)
	var size countingWriter
	if err := m.WriteJSON(&size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
