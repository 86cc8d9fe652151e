package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// This file implements the flight recorder: a lock-free ring buffer of
// recent observability events — synthesis spans, adaptive state
// transitions, drift alarms, container migrations — held in memory at
// a fixed cost and exportable on demand as JSON lines or as the Chrome
// trace-event format (load the file in chrome://tracing or Perfetto).
//
// The recorder answers the question metrics cannot: not "how many
// times did the hash degrade" but "what exactly happened around the
// degradation at 14:02". It is the in-process black box the serving
// plane will expose per tenant.

// EventKind classifies a recorded event.
type EventKind uint8

const (
	// EventSpan is a timed phase: Start..Start+Dur.
	EventSpan EventKind = iota
	// EventInstant is a point-in-time marker (state transition, alarm).
	EventInstant
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSpan:
		return "span"
	case EventInstant:
		return "instant"
	default:
		return "kind?"
	}
}

// Attr is one key/value annotation on an event.
type Attr struct {
	Key   string
	Value string
	// Sensitive marks the value as user data (a key, a certifier
	// counterexample). Flight-recorder exports pass sensitive values
	// through the installed redactor (Recorder.SetRedactor) before
	// they leave the process; in-process readers see them raw.
	Sensitive bool
}

// String formats an attribute as key=value.
func (a Attr) String() string { return a.Key + "=" + a.Value }

// Int builds an integer-valued attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: fmt.Sprint(v)} }

// Str builds a string-valued attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean-valued attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: fmt.Sprint(v)} }

// Sensitive builds a string-valued attribute carrying user data, to be
// redacted at export.
func Sensitive(key, value string) Attr {
	return Attr{Key: key, Value: value, Sensitive: true}
}

// eventAttrs is the number of attribute slots an Event carries. The
// fixed size keeps events copyable without chasing slices; producers
// with more attributes lose the tail (recorded in NAttr).
const eventAttrs = 6

// Event is one flight-recorder entry. Events are immutable once
// recorded; readers receive copies.
type Event struct {
	// Seq is the global sequence number (0-based, monotonic). The ring
	// keeps the last Cap events by sequence.
	Seq uint64
	// Kind distinguishes spans from instants.
	Kind EventKind
	// Cat groups events by subsystem: "synth", "adaptive", "drift",
	// "container".
	Cat string
	// Name identifies the event, dot-separated (e.g. "synth.plan",
	// "adaptive.state").
	Name string
	// Start is the event time in nanoseconds since the Unix epoch.
	Start int64
	// Dur is the span duration in nanoseconds (0 for instants).
	Dur int64
	// Attrs holds the first NAttr structured attributes.
	Attrs [eventAttrs]Attr
	// NAttr is the number of valid entries in Attrs.
	NAttr uint8
}

// AttrList returns the event's valid attributes as a slice.
func (e *Event) AttrList() []Attr { return e.Attrs[:e.NAttr] }

// Recorder is the lock-free flight recorder. Writers claim a slot
// with one atomic add and publish an immutable event with one atomic
// pointer store; neither readers nor writers ever block each other.
// The ring holds the most recent Cap events — older ones are
// overwritten, with Dropped counting the loss.
//
// Passed to WithRecorder (or set as core.Options.Recorder), a
// Recorder also captures every synthesis span.
type Recorder struct {
	slots   []atomic.Pointer[Event]
	mask    uint64
	cursor  atomic.Uint64
	enabled atomic.Bool
	// redact, when set, rewrites sensitive attribute values at export
	// time (WriteJSONLines, WriteChromeTrace, Handler). Events in the
	// ring stay raw; only what leaves the process is redacted —
	// mirroring how the registry snapshots treat exemplar keys.
	redact atomic.Pointer[func(string) string]
}

// DefaultRecorderCap is the ring capacity NewRecorder selects for
// n <= 0 — enough for several synthesis runs plus hours of lifecycle
// events at a fixed ~tens-of-kilobytes footprint.
const DefaultRecorderCap = 2048

// NewRecorder returns an enabled recorder holding the last n events
// (rounded up to a power of two; n <= 0 selects DefaultRecorderCap).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderCap
	}
	c := 1
	for c < n {
		c *= 2
	}
	r := &Recorder{slots: make([]atomic.Pointer[Event], c), mask: uint64(c - 1)}
	r.enabled.Store(true)
	return r
}

// SetEnabled turns recording on or off. A disabled recorder drops
// events at the cost of one atomic load; the captured history stays
// readable.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// SetRedactor installs fn over the values of sensitive attributes in
// every export. nil removes redaction. Registry.SetRedactor installs
// the same function here and over its metric snapshots, so exemplar
// keys and recorded counterexamples are governed by one policy.
func (r *Recorder) SetRedactor(fn func(string) string) {
	if r == nil {
		return
	}
	if fn == nil {
		r.redact.Store(nil)
		return
	}
	r.redact.Store(&fn)
}

// redactor returns the installed redactor, or nil.
func (r *Recorder) redactor() func(string) string {
	if p := r.redact.Load(); p != nil {
		return *p
	}
	return nil
}

// exportValue is an attribute's value as it may leave the process.
func exportValue(a Attr, redact func(string) string) string {
	if a.Sensitive && redact != nil {
		return redact(a.Value)
	}
	return a.Value
}

// Enabled reports whether the recorder is capturing.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.slots) }

// Recorded returns the total number of events ever recorded.
func (r *Recorder) Recorded() uint64 { return r.cursor.Load() }

// Dropped returns how many events have been overwritten by newer ones.
func (r *Recorder) Dropped() uint64 {
	n := r.cursor.Load()
	if c := uint64(len(r.slots)); n > c {
		return n - c
	}
	return 0
}

// record claims the next sequence number and publishes ev.
func (r *Recorder) record(ev Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	seq := r.cursor.Add(1) - 1
	ev.Seq = seq
	r.slots[seq&r.mask].Store(&ev)
}

// Instant records a point-in-time event.
func (r *Recorder) Instant(cat, name string, attrs ...Attr) {
	if r == nil || !r.enabled.Load() {
		return
	}
	ev := Event{Kind: EventInstant, Cat: cat, Name: name, Start: time.Now().UnixNano()}
	ev.NAttr = uint8(copy(ev.Attrs[:], attrs))
	r.record(ev)
}

// Span runs body as one recorded span. body runs exactly once, also
// when r is nil or disabled, and the span ends when body returns or
// panics; a panic propagates after the span is recorded. The span
// carries attrs followed by the attributes body returns (none when it
// panics). Values leave body by capture:
//
//	var fn *Fn
//	telemetry.Span(rec, "synth", "synth.compile", func() []telemetry.Attr {
//		fn = compile()
//		return []telemetry.Attr{telemetry.Bool("ok", fn != nil)}
//	}, telemetry.Str("family", fam))
//
// There is no handle to end a span by, so none can leak or end twice.
func Span(r *Recorder, cat, name string, body func() []Attr, attrs ...Attr) {
	if r == nil || !r.enabled.Load() {
		body()
		return
	}
	start := time.Now()
	var end []Attr
	defer func() {
		ev := Event{
			Kind:  EventSpan,
			Cat:   cat,
			Name:  name,
			Start: start.UnixNano(),
			Dur:   int64(time.Since(start)),
		}
		n := copy(ev.Attrs[:], attrs)
		ev.NAttr = uint8(n + copy(ev.Attrs[n:], end))
		r.record(ev)
	}()
	end = body()
}

// Events returns the recorded events, oldest first. The snapshot is
// taken without blocking writers, so an event recorded while the
// snapshot runs may or may not appear.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONLines streams the recorded events to w, one JSON object
// per line, oldest first.
func (r *Recorder) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	redact := r.redactor()
	for _, ev := range r.Events() {
		if err := enc.Encode(jsonEvent(ev, redact)); err != nil {
			return err
		}
	}
	return nil
}

// lineEvent is the JSON-lines shape of one event.
type lineEvent struct {
	Seq     uint64            `json:"seq"`
	Kind    string            `json:"kind"`
	Cat     string            `json:"cat"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func jsonEvent(ev Event, redact func(string) string) lineEvent {
	le := lineEvent{
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Cat:     ev.Cat,
		Name:    ev.Name,
		StartNs: ev.Start,
		DurNs:   ev.Dur,
	}
	if ev.NAttr > 0 {
		le.Attrs = make(map[string]string, ev.NAttr)
		for _, a := range ev.AttrList() {
			le.Attrs[a.Key] = exportValue(a, redact)
		}
	}
	return le
}

// ChromeTraceEvent is one entry of the Chrome trace-event format
// (the "JSON Object Format" chrome://tracing and Perfetto load):
// complete events carry ph "X" with microsecond ts/dur; instants
// carry ph "i" with global scope.
type ChromeTraceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TsUs  float64           `json:"ts"`
	DurUs float64           `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// chromeTrace converts the recorded events. Category doubles as the
// tid so each subsystem renders on its own track.
func (r *Recorder) chromeTrace() ChromeTrace {
	events := r.Events()
	redact := r.redactor()
	tids := map[string]int{}
	trace := ChromeTrace{TraceEvents: make([]ChromeTraceEvent, 0, len(events)), DisplayTimeUnit: "ns"}
	for _, ev := range events {
		tid, ok := tids[ev.Cat]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Cat] = tid
		}
		ce := ChromeTraceEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			TsUs: float64(ev.Start) / 1e3,
			Pid:  1,
			Tid:  tid,
		}
		switch ev.Kind {
		case EventInstant:
			ce.Phase = "i"
			ce.Scope = "g"
		default:
			ce.Phase = "X"
			ce.DurUs = float64(ev.Dur) / 1e3
		}
		if ev.NAttr > 0 {
			ce.Args = make(map[string]string, ev.NAttr)
			for _, a := range ev.AttrList() {
				ce.Args[a.Key] = exportValue(a, redact)
			}
		}
		trace.TraceEvents = append(trace.TraceEvents, ce)
	}
	return trace
}

// WriteChromeTrace writes the recorded events as a Chrome trace-event
// JSON object, loadable in chrome://tracing and Perfetto.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.chromeTrace())
}

// Handler serves the flight recorder over HTTP: JSON lines by
// default, the Chrome trace-event format with ?format=chrome.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Content-Disposition", `attachment; filename="sepe-trace.json"`)
			if err := r.WriteChromeTrace(w); err != nil {
				http.Error(w, fmt.Sprintf("trace export: %v", err), http.StatusInternalServerError)
			}
		default:
			w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
			if err := r.WriteJSONLines(w); err != nil {
				http.Error(w, fmt.Sprintf("trace export: %v", err), http.StatusInternalServerError)
			}
		}
	})
}
