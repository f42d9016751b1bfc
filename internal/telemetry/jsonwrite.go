package telemetry

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// jsonFlushAt is the fill level at which the manifest writer hands its
// buffer to the destination. Flushes happen between array elements, so
// the buffer holds at most one element (one span, say) past this mark
// and an 11 MB cluster manifest streams through a few tens of KB.
const jsonFlushAt = 32 << 10

// jsonWriter streams the manifest types as indented JSON. Its output is
// byte-identical to encoding/json's Encoder under SetIndent("", "  ")
// with HTML escaping on (TestWriteJSONMatchesEncodingJSON and
// FuzzManifestWriteJSON pin this): the same field order and omitempty
// rules as the struct tags, null for a nil slice, [] for an empty one,
// and encoding/json's string escapes. Each manifest type has one method
// below, in struct-field order; a field added to a manifest type must
// be added here too, or the oracle test fails.
//
// The first write error is kept; later flushes are skipped and
// WriteJSON returns it.
type jsonWriter struct {
	w     io.Writer
	buf   []byte
	depth int  // open containers
	empty bool // the innermost open container has no member yet
	err   error
}

// WriteJSON writes the manifest as deterministic, indented JSON with a
// trailing newline. Field order is fixed by the struct; slices are in
// record or name-sorted order; nothing consults maps at encode time.
// The document is streamed: it never sits in memory whole.
func (m *Manifest) WriteJSON(w io.Writer) error {
	j := jsonWriter{w: w, buf: make([]byte, 0, 2*jsonFlushAt)}
	j.manifest(m)
	j.buf = append(j.buf, '\n')
	j.flush()
	return j.err
}

func (j *jsonWriter) flush() {
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// newline starts a line at the current depth, two spaces per level.
func (j *jsonWriter) newline() {
	j.buf = append(j.buf, '\n')
	for i := 0; i < j.depth; i++ {
		j.buf = append(j.buf, ' ', ' ')
	}
}

// elem starts the next member of the innermost container.
func (j *jsonWriter) elem() {
	if !j.empty {
		j.buf = append(j.buf, ',')
	}
	j.empty = false
	j.newline()
}

// key starts an object member. Field names are plain ASCII and need no
// escaping.
func (j *jsonWriter) key(name string) {
	j.elem()
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, name...)
	j.buf = append(j.buf, '"', ':', ' ')
}

func (j *jsonWriter) open(c byte) {
	j.buf = append(j.buf, c)
	j.depth++
	j.empty = true
}

// close ends the innermost container; an empty one stays on one line
// ("[]"), as json.Indent leaves it.
func (j *jsonWriter) close(c byte) {
	j.depth--
	if !j.empty {
		j.newline()
	}
	j.buf = append(j.buf, c)
	j.empty = false
}

func (j *jsonWriter) str(name, v string) {
	j.key(name)
	j.buf = appendJSONString(j.buf, v)
}

func (j *jsonWriter) num(name string, v int64) {
	j.key(name)
	j.buf = strconv.AppendInt(j.buf, v, 10)
}

// array writes xs as a JSON array — null for a nil slice, [] for an
// empty one — flushing between elements.
func array[T any](j *jsonWriter, xs []T, each func(*jsonWriter, *T)) {
	if xs == nil {
		j.buf = append(j.buf, "null"...)
		return
	}
	j.open('[')
	for i := range xs {
		j.elem()
		each(j, &xs[i])
		if len(j.buf) >= jsonFlushAt {
			j.flush()
		}
	}
	j.close(']')
}

func (j *jsonWriter) manifest(m *Manifest) {
	j.open('{')
	j.str("schema", m.Schema)
	if m.Build != "" {
		j.str("build", m.Build)
	}
	j.key("seed")
	j.buf = strconv.AppendUint(j.buf, m.Seed, 10)
	if m.ConfigDigest != "" {
		j.str("config_digest", m.ConfigDigest)
	}
	if m.HorizonTicks != 0 {
		j.num("horizon_ticks", int64(m.HorizonTicks))
	}
	if m.Node != 0 {
		j.num("node", int64(m.Node))
	}
	if m.NodeCount != 0 {
		j.num("node_count", int64(m.NodeCount))
	}
	if len(m.Tasks) > 0 {
		j.key("tasks")
		array(j, m.Tasks, (*jsonWriter).taskInfo)
	}
	j.key("metrics")
	j.snapshot(&m.Metrics)
	if len(m.Spans) > 0 {
		j.key("spans")
		array(j, m.Spans, (*jsonWriter).span)
	}
	if len(m.Events) > 0 {
		j.key("events")
		array(j, m.Events, (*jsonWriter).logEvent)
	}
	if len(m.FlightDumps) > 0 {
		j.key("flight_dumps")
		array(j, m.FlightDumps, (*jsonWriter).flightDump)
	}
	j.key("totals")
	j.totals(&m.Totals)
	j.close('}')
}

func (j *jsonWriter) taskInfo(t *TaskInfo) {
	j.open('{')
	j.num("id", t.ID)
	j.str("name", t.Name)
	if t.Node != 0 {
		j.num("node", int64(t.Node))
	}
	j.close('}')
}

func (j *jsonWriter) snapshot(s *Snapshot) {
	j.open('{')
	j.key("counters")
	array(j, s.Counters, (*jsonWriter).counterSnap)
	j.key("gauges")
	array(j, s.Gauges, (*jsonWriter).gaugeSnap)
	j.key("histograms")
	array(j, s.Histograms, (*jsonWriter).histSnap)
	j.close('}')
}

func (j *jsonWriter) counterSnap(c *CounterSnap) {
	j.open('{')
	j.str("name", c.Name)
	j.num("value", c.Value)
	j.close('}')
}

func (j *jsonWriter) gaugeSnap(g *GaugeSnap) {
	j.open('{')
	j.str("name", g.Name)
	j.num("value", g.Value)
	j.num("max", g.Max)
	j.close('}')
}

func (j *jsonWriter) histSnap(h *HistSnap) {
	j.open('{')
	j.str("name", h.Name)
	j.num("width", h.Width)
	j.key("counts")
	array(j, h.Counts, func(j *jsonWriter, v *int64) {
		j.buf = strconv.AppendInt(j.buf, *v, 10)
	})
	j.num("sum", h.Sum)
	j.num("count", h.Count)
	j.close('}')
}

func (j *jsonWriter) span(s *Span) {
	j.open('{')
	j.num("id", int64(s.ID))
	if s.Parent != 0 {
		j.num("parent", int64(s.Parent))
	}
	j.str("cat", s.Cat)
	j.str("name", s.Name)
	j.num("task", s.Task)
	j.num("begin", int64(s.Begin))
	j.num("end", int64(s.End))
	if s.Detail != "" {
		j.str("detail", s.Detail)
	}
	if s.Node != 0 {
		j.num("node", int64(s.Node))
	}
	if s.Link != 0 {
		j.num("link", int64(s.Link))
	}
	if s.LinkNode != 0 {
		j.num("link_node", int64(s.LinkNode))
	}
	j.close('}')
}

func (j *jsonWriter) logEvent(e *LogEvent) {
	j.open('{')
	j.num("at", int64(e.At))
	j.str("kind", e.Kind)
	if e.Detail != "" {
		j.str("detail", e.Detail)
	}
	j.close('}')
}

func (j *jsonWriter) flightDump(d *FlightDump) {
	j.open('{')
	if d.Node != 0 {
		j.num("node", int64(d.Node))
	}
	j.str("reason", d.Reason)
	j.num("at", int64(d.At))
	j.num("spans_total", d.SpansTotal)
	j.num("spans_dropped", d.SpansDropped)
	j.num("events_total", d.EventsTotal)
	j.num("events_dropped", d.EventsDropped)
	if len(d.Spans) > 0 {
		j.key("spans")
		array(j, d.Spans, (*jsonWriter).span)
	}
	if len(d.Events) > 0 {
		j.key("events")
		array(j, d.Events, (*jsonWriter).logEvent)
	}
	j.close('}')
}

func (j *jsonWriter) totals(t *Totals) {
	j.open('{')
	j.num("deadline_misses", t.DeadlineMisses)
	j.num("violations", t.Violations)
	j.num("degradations", t.Degradations)
	j.num("faults_injected", t.FaultsInjected)
	if t.FlightDumps != 0 {
		j.num("flight_dumps", t.FlightDumps)
	}
	j.close('}')
}

// htmlSafe reports the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is on: everything printable except
// '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const lowerHex = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string under encoding/
// json's rules with HTML escaping: short escapes for \b \f \n \r \t,
// \u00XX (lowercase hex) for other control bytes and for < > &,
// \ufffd for each invalid UTF-8 byte, and U+2028 / U+2029 as
// \u2028 / \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', lowerHex[b>>4], lowerHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', lowerHex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
