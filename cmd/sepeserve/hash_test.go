package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// newReadyServer builds a server whose tenant "ssn" is ready, and the
// in-process function of the same (unkeyed, deterministic) plan.
func newReadyServer(tb testing.TB) (*server, *core.Fn) {
	tb.Helper()
	reg := newRegistry(telemetry.NewRegistry(), nil)
	reg.quick = true
	tb.Cleanup(reg.close)
	tn, err := reg.register(registration{name: "ssn", regex: ssnRegex, family: core.Pext})
	if err != nil {
		tb.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := tn.ready(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("tenant not ready after 10s")
		}
	}
	pat, err := rexParseT(ssnRegex)
	if err != nil {
		tb.Fatal(err)
	}
	fn, err := core.Synthesize(pat, core.Pext, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return newServer(reg), fn
}

func ssnKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i)
	}
	return keys
}

func batchBody(keys []string) []byte {
	b, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		panic(err)
	}
	return b
}

// TestHashResponseBytes pins the hash endpoint's exact answers: compact
// JSON with "generation" first, unpadded hex hashes, one trailing
// newline, and matching Content-Type and Content-Length headers.
func TestHashResponseBytes(t *testing.T) {
	s, fn := newReadyServer(t)
	mux := s.mux()
	hexOf := func(k string) string { return fmt.Sprintf("%x", fn.Hash(k)) }
	batchWant := func(keys []string) string {
		quoted := make([]string, len(keys))
		for i, k := range keys {
			quoted[i] = `"` + hexOf(k) + `"`
		}
		return `{"generation":1,"hashes":[` + strings.Join(quoted, ",") + "]}\n"
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"single", []byte(`{"key":"123-45-6789"}`), `{"generation":1,"hash":"` + hexOf("123-45-6789") + "\"}\n"},
		{"batch", []byte(`{"keys":["123-45-6789","987-65-4321"]}`), batchWant([]string{"123-45-6789", "987-65-4321"})},
		{"batch beyond the stack array", batchBody(ssnKeys(stackBatch + 7)), batchWant(ssnKeys(stackBatch + 7))},
		{"non-canonical batch", []byte(`{"Keys":["123-45-6789"]}`), batchWant([]string{"123-45-6789"})},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/hash/ssn", bytes.NewReader(tc.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s: body\n%q\nwant\n%q", tc.name, got, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(tc.want)) {
			t.Errorf("%s: Content-Length %q, want %d", tc.name, cl, len(tc.want))
		}
	}
}

// errConnReset stands in for a client connection failing mid-body.
var errConnReset = errors.New("connection reset by peer")

// failingBody is body followed by a failed read.
func failingBody(body string) io.Reader {
	return io.MultiReader(strings.NewReader(body), failedReader{errConnReset})
}

// TestHashBodyReadError pins the answers to a body whose read fails:
// as when encoding/json read the body itself, a complete value before
// the failure is served, and anything else is refused with the
// decoder's error.
func TestHashBodyReadError(t *testing.T) {
	s, fn := newReadyServer(t)
	mux := s.mux()
	served := fmt.Sprintf("{\"generation\":1,\"hashes\":[\"%x\"]}\n", fn.Hash("123-45-6789"))
	for _, tc := range []struct {
		body   string
		status int
		want   string
	}{
		{`{"keys":["123-45-6789"]}`, http.StatusOK, served},
		{"{\"keys\":[\"123-45-6789\"]} \n", http.StatusOK, served},
		{`{"keys":["123-45-6789"]`, http.StatusBadRequest, `{"error":"invalid JSON body: connection reset by peer"}` + "\n"},
		{`{"keys":["123-45-6789"]}x`, http.StatusBadRequest, `{"error":"invalid JSON body: trailing data"}` + "\n"},
		{``, http.StatusBadRequest, `{"error":"invalid JSON body: connection reset by peer"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/hash/ssn", failingBody(tc.body)))
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%q then a failed read: %d %q, want %d %q",
				tc.body, rec.Code, rec.Body, tc.status, tc.want)
		}
	}
}

// reusableWriter is a ResponseWriter that a test resets between
// requests, so that allocation counts cover the handler alone.
type reusableWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *reusableWriter) Header() http.Header { return w.hdr }

func (w *reusableWriter) WriteHeader(status int) { w.status = status }

func (w *reusableWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *reusableWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// hashAllocs reports the allocations of one batch request of n keys
// through the routing table.
func hashAllocs(t *testing.T, mux http.Handler, n int) float64 {
	t.Helper()
	body := batchBody(ssnKeys(n))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/hash/ssn", nil)
	req.Body = io.NopCloser(rd)
	w := &reusableWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		w.reset()
		mux.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("%d keys: status %d: %s", n, w.status, w.body.Bytes())
	}
	return allocs
}

// TestHashAllocs pins the hash path's allocation budget: a 64-key
// batch costs a handful of allocations (the body string, its key
// slice, routing and headers), and a 1024-key batch only a constant
// number more, not one or more per key.
func TestHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, _ := newReadyServer(t)
	mux := s.mux()
	small := hashAllocs(t, mux, 64)
	if small > 8 {
		t.Errorf("64-key request: %.1f allocs, want <= 8", small)
	}
	large := hashAllocs(t, mux, 1024)
	if large > small+3 {
		t.Errorf("1024-key request: %.1f allocs, 64-key %.1f: want at most 3 more", large, small)
	}
	t.Logf("allocs per request: %.1f at 64 keys, %.1f at 1024", small, large)
}

// BenchmarkHashRequest measures one 64-key batch request through the
// routing table: a canonical body, which the scanner parses, and two
// bodies with escaped keys, which fall back to encoding/json — an
// escape in the last key only (the scan's costliest failure) and one
// in every key. The escapes decode to the plain keys, so every body
// gets the same answer and the tenant does not drift.
func BenchmarkHashRequest(b *testing.B) {
	s, _ := newReadyServer(b)
	mux := s.mux()
	canonical := batchBody(ssnKeys(64))
	last := bytes.LastIndexByte(canonical, '-')
	escDash := []byte("\\u002d")
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"canonical", canonical},
		{"escaped-last-key", slices.Concat(canonical[:last], escDash, canonical[last+1:])},
		{"escaped-every-key", bytes.ReplaceAll(canonical, []byte("-"), escDash)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			req := httptest.NewRequest("POST", "/v1/hash/ssn", nil)
			req.Body = io.NopCloser(rd)
			w := &reusableWriter{hdr: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				rd.Reset(bc.body)
				w.reset()
				mux.ServeHTTP(w, req)
			}
			if w.status != http.StatusOK {
				b.Fatalf("status %d: %s", w.status, w.body.Bytes())
			}
		})
	}
}

// quotedKey renders a hashRequest.Key for a failure message.
func quotedKey(k *string) string {
	if k == nil {
		return "nil"
	}
	return strconv.Quote(*k)
}

// FuzzHashRequest is the differential test of the hash request path:
// for any body, parseHashBody must agree with encoding/json decoding
// into hashRequest — the same accept/reject and error text, the same
// Key and Keys — and the handler must answer the status, error text
// and, for 200, hashes that the decoded request calls for, both for
// the body intact and for the body followed by a failed read.
func FuzzHashRequest(f *testing.F) {
	for _, seed := range []string{
		`{"key":"123-45-6789"}`,
		`{"keys":["123-45-6789","987-65-4321"]}`,
		" \t\r\n{ \"keys\" : [ \"a\" , \"b\" ] , \"key\" : \"c\" } \n",
		`{}`,
		``,
		`{"keys":[]}`,
		`{"key":"a\"b"}`,
		`{"key":"café"}`,
		`{"key":"\ud800"}`,
		`{"keys":["😀","\udc00x"]}`,
		"{\"key\":\"caf\xc3\xa9\"}",
		"{\"key\":\"\xff\xfe\"}",
		"{\"key\":\"\xed\xa0\x80\"}",
		"{\"key\":\"a\tb\"}",
		`{"KEYS":["a"]}`,
		`{"Key":"a"}`,
		`{"key":"a","key":"b"}`,
		`{"keys":["a"],"keys":["b"]}`,
		`{"key":null}`,
		`{"keys":null}`,
		`{"keys":[null]}`,
		`{"keys":[1]}`,
		`{"keys":["a",]}`,
		`{"x":{"y":[1,{"z":"w"}]},"keys":["a"]}`,
		`{"key":"a"}x`,
		`{"key":"a"}]`,
		`{"key":"a"} {"key":"b"}`,
		`{"key":"a"`,
		`[]`,
		`"key"`,
		`{"keys":["a"]}` + strings.Repeat(" ", maxBody),
		`{"keys":["` + strings.Repeat("a", maxBody) + `"]}`,
	} {
		f.Add([]byte(seed))
	}
	s, fn := newReadyServer(f)
	mux := s.mux()
	f.Fuzz(func(t *testing.T, body []byte) {
		// What decodeJSON saw of the body, and what it made of it.
		var want hashRequest
		wantErr := decodeJSON(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &want)
		seen, err := io.ReadAll(io.LimitReader(bytes.NewReader(body), maxBody))
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := parseHashBody(seen)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: parse error %v, encoding/json error %v", body, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%q: parse error %q, encoding/json error %q", body, gotErr, wantErr)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%q: parsed key %s keys %q, encoding/json key %s keys %q",
				body, quotedKey(got.Key), got.Keys, quotedKey(want.Key), want.Keys)
		}

		// The handler, given the body intact and then given the same
		// bytes from a connection that fails after them.
		for _, newBody := range []func() io.Reader{
			func() io.Reader { return bytes.NewReader(body) },
			func() io.Reader { return failingBody(string(body)) },
		} {
			var want hashRequest
			wantErr := decodeJSON(httptest.NewRequest("POST", "/", newBody()), &want)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/hash/ssn", newBody()))
			checkHashAnswer(t, fn, body, rec, want, wantErr)
		}
	})
}

// checkHashAnswer checks the handler's answer rec to body against the
// status (and, for 200, the hashes) that encoding/json's decoding of
// it, want or wantErr, calls for.
func checkHashAnswer(t *testing.T, fn *core.Fn, body []byte, rec *httptest.ResponseRecorder, want hashRequest, wantErr error) {
	t.Helper()
	var keys []string
	status := http.StatusBadRequest
	switch {
	case wantErr != nil:
	case want.Key != nil && len(want.Keys) == 0:
		keys, status = []string{*want.Key}, http.StatusOK
	case want.Key == nil && len(want.Keys) > maxBatch:
		status = http.StatusRequestEntityTooLarge
	case want.Key == nil && len(want.Keys) > 0:
		keys, status = want.Keys, http.StatusOK
	}
	if rec.Code != status {
		t.Fatalf("%q: status %d, want %d: %s", body, rec.Code, status, rec.Body)
	}
	if wantErr != nil {
		var problem struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &problem); err != nil || problem.Error != wantErr.Error() {
			t.Fatalf("%q: answer %q, want error %q", body, rec.Body, wantErr)
		}
	}
	if status != http.StatusOK {
		return
	}
	var ans struct {
		Hash       *string  `json:"hash"`
		Hashes     []string `json:"hashes"`
		Generation uint64   `json:"generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatalf("%q: answer %q: %v", body, rec.Body, err)
	}
	hexes := ans.Hashes
	if ans.Hash != nil {
		hexes = []string{*ans.Hash}
	}
	if len(hexes) != len(keys) {
		t.Fatalf("%q: answer %q for %d keys", body, rec.Body, len(keys))
	}
	if ans.Generation != 1 {
		return // off-format keys drifted the tenant onto its fallback
	}
	for i, k := range keys {
		if want := hex64(fn.Hash(k)); hexes[i] != want {
			t.Fatalf("%q: hash %d = %s, want %s", body, i, hexes[i], want)
		}
	}
}
