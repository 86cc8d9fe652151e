package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderRoundsCapacity(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, DefaultRecorderCap}, {-5, DefaultRecorderCap},
		{1, 1}, {2, 2}, {3, 4}, {100, 128}, {2048, 2048},
	} {
		if got := NewRecorder(tc.n).Cap(); got != tc.want {
			t.Errorf("NewRecorder(%d).Cap() = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Instant("cat", fmt.Sprintf("ev.%d", i))
	}
	if got := r.Recorded(); got != 20 {
		t.Fatalf("Recorded = %d, want 20", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8 (ring capacity)", len(evs))
	}
	// The survivors are the newest 8, oldest first.
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Name != fmt.Sprintf("ev.%d", 12+i) {
			t.Fatalf("event %d: Name = %q", i, ev.Name)
		}
	}
}

func TestRecorderDisabled(t *testing.T) {
	r := NewRecorder(8)
	r.Instant("c", "kept")
	r.SetEnabled(false)
	if r.Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	r.Instant("c", "dropped")
	Span(r, "c", "also.dropped", func() []Attr { return nil })
	evs := r.Events()
	if len(evs) != 1 || evs[0].Name != "kept" {
		t.Fatalf("disabled recorder captured %+v", evs)
	}
	r.SetEnabled(true)
	r.Instant("c", "kept2")
	if evs := r.Events(); len(evs) != 2 {
		t.Fatalf("re-enabled recorder has %d events", len(evs))
	}
}

func TestSpanRecordsStartThenEndAttrs(t *testing.T) {
	r := NewRecorder(16)
	Span(r, "synth", "synth.plan", func() []Attr {
		if got := len(r.Events()); got != 0 {
			t.Fatalf("span recorded before its body returned: %d events", got)
		}
		time.Sleep(time.Millisecond)
		return []Attr{Int("loads", 3), Bool("ok", true)}
	}, Str("family", "pext"), Str("hash", "ssn"))
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EventSpan || ev.Cat != "synth" || ev.Name != "synth.plan" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Dur <= 0 {
		t.Fatalf("span duration %d, want > 0", ev.Dur)
	}
	var got []string
	for _, a := range ev.AttrList() {
		got = append(got, a.String())
	}
	if want := "family=pext hash=ssn loads=3 ok=true"; strings.Join(got, " ") != want {
		t.Fatalf("attrs = %v, want %s", got, want)
	}
}

// The body runs exactly once whether or not anything records it.
func TestSpanRunsBodyOnce(t *testing.T) {
	disabled := NewRecorder(16)
	disabled.SetEnabled(false)
	for _, tc := range []struct {
		name  string
		r     *Recorder
		spans int
	}{
		{"nil", nil, 0},
		{"disabled", disabled, 0},
		{"enabled", NewRecorder(16), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			Span(tc.r, "c", "n", func() []Attr {
				runs++
				return []Attr{Int("runs", runs)}
			}, Str("k", "v"))
			if runs != 1 {
				t.Fatalf("body ran %d times, want 1", runs)
			}
			if tc.r == nil {
				return
			}
			if got := len(tc.r.Events()); got != tc.spans {
				t.Fatalf("recorded %d spans, want %d", got, tc.spans)
			}
		})
	}
}

// A panicking body still ends its span, with the start attributes,
// and the panic reaches the caller.
func TestSpanRecordsPanickingBody(t *testing.T) {
	r := NewRecorder(16)
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the body's panic", p)
			}
		}()
		Span(r, "adaptive", "adaptive.heal", func() []Attr { panic("boom") }, Str("hash", "ssn"))
		t.Fatal("Span returned after its body panicked")
	}()
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != EventSpan || evs[0].Name != "adaptive.heal" {
		t.Fatalf("events = %+v", evs)
	}
	if got := evs[0].AttrList(); len(got) != 1 || got[0].String() != "hash=ssn" {
		t.Fatalf("attrs = %+v", got)
	}
}

func TestEventAttrOverflow(t *testing.T) {
	r := NewRecorder(4)
	attrs := make([]Attr, eventAttrs+3)
	for i := range attrs {
		attrs[i] = Int(fmt.Sprintf("k%d", i), i)
	}
	r.Instant("c", "full", attrs...)
	ev := r.Events()[0]
	if int(ev.NAttr) != eventAttrs {
		t.Fatalf("NAttr = %d, want %d (tail truncated)", ev.NAttr, eventAttrs)
	}
}

func TestWriteJSONLines(t *testing.T) {
	r := NewRecorder(16)
	r.Instant("drift", "drift.degraded", Str("monitor", "ssn"))
	Span(r, "container", "container.migrate", func() []Attr { return nil })
	var buf bytes.Buffer
	if err := r.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []lineEvent
	for sc.Scan() {
		var le lineEvent
		if err := json.Unmarshal(sc.Bytes(), &le); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, le)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Kind != "instant" || lines[0].Attrs["monitor"] != "ssn" {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if lines[1].Kind != "span" || lines[1].Cat != "container" {
		t.Fatalf("line 1 = %+v", lines[1])
	}
}

// TestChromeTraceSchema validates the export against the trace-event
// format contract chrome://tracing and Perfetto rely on: a top-level
// traceEvents array whose entries carry name/cat/ph/ts/pid/tid, with
// ph "X" complete events carrying a dur and ph "i" instants a scope.
func TestChromeTraceSchema(t *testing.T) {
	r := NewRecorder(16)
	Span(r, "synth", "synth.plan", func() []Attr {
		time.Sleep(time.Millisecond)
		return nil
	}, Str("family", "pext"))
	r.Instant("adaptive", "adaptive.state", Str("state", "Degraded"))

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("top-level not a JSON object: %v", err)
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(top["traceEvents"], &events); err != nil {
		t.Fatalf("traceEvents not an array: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want 2", len(events))
	}
	for i, ev := range events {
		for _, req := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[req]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, req, ev)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatal(err)
		}
		var ts float64
		if err := json.Unmarshal(ev["ts"], &ts); err != nil || ts <= 0 {
			t.Fatalf("event %d ts = %v (%v), want positive microseconds", i, ts, err)
		}
		switch ph {
		case "X":
			var dur float64
			if err := json.Unmarshal(ev["dur"], &dur); err != nil || dur <= 0 {
				t.Fatalf("complete event %d dur = %v (%v)", i, dur, err)
			}
		case "i":
			var scope string
			if err := json.Unmarshal(ev["s"], &scope); err != nil || scope != "g" {
				t.Fatalf("instant event %d scope = %q (%v)", i, scope, err)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
	}
	// Distinct categories render on distinct tracks (tids).
	tids := map[string]bool{}
	for _, ev := range events {
		tids[string(ev["tid"])] = true
	}
	if len(tids) != 2 {
		t.Fatalf("categories share a tid: %v", tids)
	}
}

func TestRecorderHandlerFormats(t *testing.T) {
	r := NewRecorder(16)
	r.Instant("drift", "drift.degraded")

	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/trace", nil))
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if !strings.Contains(rw.Body.String(), `"drift.degraded"`) {
		t.Fatalf("NDJSON body = %q", rw.Body.String())
	}

	rw = httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/trace?format=chrome", nil))
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("chrome Content-Type = %q", ct)
	}
	if cd := rw.Header().Get("Content-Disposition"); !strings.Contains(cd, "sepe-trace.json") {
		t.Fatalf("Content-Disposition = %q", cd)
	}
	var trace ChromeTrace
	if err := json.Unmarshal(rw.Body.Bytes(), &trace); err != nil {
		t.Fatalf("chrome body: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Fatalf("traceEvents = %+v", trace.TraceEvents)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines
// while a reader snapshots and exports; run under -race, this is the
// lock-freedom proof for the ring.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers = 8
	const perWriter = 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					r.Instant("cat", "inst", Int("w", w))
				case 1:
					Span(r, "cat", "span", func() []Attr { return nil })
				default:
					Span(r, "synth", "synth.x", func() []Attr { return []Attr{Int("w", w)} }, Str("family", "pext"))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 100; i++ {
			_ = r.Events()
			_ = r.WriteJSONLines(discard{})
		}
	}()
	wg.Wait()
	<-stop
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRecorderRedactsSensitiveAttrs pins the export-side redaction
// contract: sensitive attribute values (certifier counterexamples,
// exemplar keys) pass through the installed redactor in both the
// JSON-lines and Chrome-trace exports, non-sensitive attributes are
// untouched, raw values stay in memory (removing the redactor restores
// them), and without a redactor the exports carry the raw value.
func TestRecorderRedactsSensitiveAttrs(t *testing.T) {
	r := NewRecorder(8)
	r.Instant("certify", "counterexample",
		Sensitive("key1", "078-05-1120"),
		Str("family", "Naive"))

	export := func() string {
		var buf bytes.Buffer
		if err := r.WriteJSONLines(&buf); err != nil {
			t.Fatal(err)
		}
		var chrome bytes.Buffer
		if err := r.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		return buf.String() + chrome.String()
	}

	if out := export(); !strings.Contains(out, "078-05-1120") {
		t.Fatal("without a redactor the raw value must export as-is")
	}
	r.SetRedactor(func(string) string { return "[redacted]" })
	out := export()
	if strings.Contains(out, "078-05-1120") {
		t.Fatalf("raw sensitive value leaked past the redactor:\n%s", out)
	}
	if !strings.Contains(out, "[redacted]") {
		t.Fatalf("redacted placeholder missing:\n%s", out)
	}
	if !strings.Contains(out, "Naive") {
		t.Fatalf("non-sensitive attribute must not be redacted:\n%s", out)
	}
	r.SetRedactor(nil)
	if out := export(); !strings.Contains(out, "078-05-1120") {
		t.Fatal("raw value must survive in memory and export after redactor removal")
	}
}
