package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/wire"
)

// HTTP surface of the daemon. All bodies are JSON except plan
// export/import, which move raw wire frames (application/octet-stream)
// so a plan file works unchanged as a cache entry, a curl download and
// an import body. Hash values are rendered as lowercase hex strings
// without leading zeros (1 to 16 digits, "0" for zero), which
// strconv.ParseUint(s, 16, 64) reads back: JSON numbers are float64
// and silently corrupt 64-bit values.

const (
	// maxBatch bounds one batch-hash request; larger batches answer
	// 413 so a single tenant cannot monopolize the daemon.
	maxBatch = 4096
	// maxBody bounds JSON request bodies (plan imports are bounded by
	// wire.MaxEncodedSize instead).
	maxBody = 1 << 20
)

// server routes requests into the registry.
type server struct {
	reg   *registry
	tel   *telemetry.Registry
	start time.Time
}

func newServer(reg *registry) *server {
	return &server{reg: reg, tel: reg.reg, start: time.Now()}
}

// mux builds the daemon's routing table.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/formats", s.handleRegister)
	m.HandleFunc("GET /v1/formats", s.handleList)
	m.HandleFunc("GET /v1/formats/{name}", s.handleStatus)
	m.HandleFunc("DELETE /v1/formats/{name}", s.handleDelete)
	m.HandleFunc("GET /v1/formats/{name}/plan", s.handleExport)
	m.HandleFunc("PUT /v1/formats/{name}/plan", s.handleImport)
	m.HandleFunc("GET /v1/formats/{name}/certificate", s.handleCertificate)
	m.HandleFunc("POST /v1/hash/{name}", s.handleHash)
	m.Handle("GET /healthz", s.tel.HealthHandler())
	m.Handle("GET /livez", s.tel.HealthHandler())
	m.Handle("GET /metrics", s.tel.Handler())
	m.Handle("GET /debug/trace", s.tel.Recorder().Handler())
	return m
}

// jsonError writes a JSON problem body with the given status.
func (s *server) jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if werr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); werr != nil {
		s.recordWriteError("error-body", werr)
	}
}

// recordWriteError notes a failed response write in the flight
// recorder: the status is already committed by the time a body write
// fails (the usual cause is a client disconnect mid-response), so the
// recorder is the only place the failure can surface.
func (s *server) recordWriteError(what string, err error) {
	s.tel.Recorder().Instant("serve", "write-failed",
		telemetry.Str("what", what), telemetry.Str("error", err.Error()))
}

// statusOf maps registry errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, errTenantExists), errors.Is(err, errFallback):
		return http.StatusConflict
	case errors.Is(err, errNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.recordWriteError("json-body", err)
	}
}

// registerRequest is the POST /v1/formats body.
type registerRequest struct {
	Name     string   `json:"name"`
	Regex    string   `json:"regex,omitempty"`
	Examples []string `json:"examples,omitempty"`
	Family   string   `json:"family,omitempty"`
	Keyed    bool     `json:"keyed,omitempty"`
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeJSON(r, &req); err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	fam, err := parseFamily(req.Family)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.reg.register(registration{
		name:     req.Name,
		regex:    req.Regex,
		examples: req.Examples,
		family:   fam,
		keyed:    req.Keyed,
	})
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	w.Header().Set("Location", "/v1/formats/"+t.name)
	s.writeJSON(w, http.StatusAccepted, t.status())
	s.tel.Recorder().Instant("serve", "serve.register",
		telemetry.Str("tenant", t.name), telemetry.Str("family", t.family.String()))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.names()
	out := make([]tenantStatus, 0, len(names))
	for _, n := range names {
		if t, err := s.reg.lookup(n); err == nil {
			out = append(out, t.status())
		}
	}
	// Deterministic order for scripts and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"formats": out})
}

// tenantStatus is the wire shape of GET /v1/formats/{name}: the
// tenant's lifecycle state plus the live adaptive and drift views.
type tenantStatus struct {
	Name       string                   `json:"name"`
	State      string                   `json:"state"`
	Error      string                   `json:"error,omitempty"`
	Source     string                   `json:"source"`
	Regex      string                   `json:"regex,omitempty"`
	Family     string                   `json:"family"`
	Keyed      bool                     `json:"keyed"`
	Backend    string                   `json:"backend,omitempty"`
	Generation uint64                   `json:"generation"`
	Adaptive   string                   `json:"adaptive,omitempty"`
	Drift      *telemetry.DriftSnapshot `json:"drift,omitempty"`
	Since      time.Time                `json:"since"`
	Created    time.Time                `json:"created"`
}

// status snapshots the tenant for the API. Once ready, generation,
// backend and regex describe what the adaptive hash serves: the
// generation is the one hash answers carry, and while the fallback
// serves, backend is "fallback" and regex the registered spec.
func (t *tenant) status() tenantStatus {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := tenantStatus{
		Name:    t.name,
		State:   t.state.String(),
		Error:   t.errMsg,
		Source:  t.source,
		Regex:   t.spec,
		Family:  t.family.String(),
		Keyed:   t.keyed,
		Since:   t.since,
		Created: t.created,
	}
	if t.hash != nil {
		fn, gen := serving(t.hash)
		st.Generation = gen
		st.Backend = "fallback"
		if fn != nil {
			st.Backend = fn.Backend().String()
			st.Regex = fn.Pattern().Regex()
		}
		st.Adaptive = t.hash.State().String()
		snap := t.hash.Monitor().Snapshot()
		st.Drift = &snap
	}
	return st
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, t.status())
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.remove(r.PathValue("name")); err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ready returns the tenant's adaptive hash, or an error explaining
// why it cannot serve.
func (t *tenant) ready() (*adaptive.Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	switch t.state {
	case stateReady:
		return t.hash, nil
	case statePending:
		return nil, fmt.Errorf("%w: %q is synthesizing", errNotReady, t.name)
	default:
		return nil, fmt.Errorf("%w: %q failed: %s", errNotReady, t.name, t.errMsg)
	}
}

// servingPlan returns the plan a ready tenant serves, or an error:
// errFallback while the fallback serves, since there is no plan to
// describe then.
func (t *tenant) servingPlan() (*core.Fn, error) {
	ah, err := t.ready()
	if err != nil {
		return nil, err
	}
	fn, _ := serving(ah)
	if fn == nil {
		return nil, fmt.Errorf("%w: %q has no plan until re-synthesis promotes one", errFallback, t.name)
	}
	return fn, nil
}

// hashRequest is the POST /v1/hash/{name} body: a single key or a
// batch, not both.
type hashRequest struct {
	Key  *string  `json:"key,omitempty"`
	Keys []string `json:"keys,omitempty"`
}

// stackBatch is the largest batch the hash handler hashes into a stack
// array; larger batches allocate their hash slice.
const stackBatch = 64

// bufPool recycles the hash handler's buffer, which holds the request
// body and then the encoded response.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf keeps buffers grown by unusually large requests out of
// the pool.
const maxPooledBuf = 64 << 10

// handleHash serves POST /v1/hash/{name}. It is the daemon's hot path,
// so it does no reflection per request: the body is read once into a
// pooled buffer, scanned in one pass (parseHashBody), hashed into a
// stack array when the batch fits, and answered by appending the
// compact JSON into the same buffer.
func (s *server) handleHash(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	ah, err := t.ready()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		s.jsonError(w, statusOf(err), err)
		return
	}
	buf := bufPool.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledBuf {
			bufPool.Put(buf)
		}
	}()
	rd := bytes.NewBuffer((*buf)[:0])
	var req hashRequest
	if _, rerr := rd.ReadFrom(io.LimitReader(r.Body, maxBody)); rerr != nil {
		// encoding/json, reading the body as it arrived, accepts a
		// complete value even when the read after it fails: replay the
		// bytes that did arrive, then the failure, so that it decides.
		req, err = decodeHashRequest(io.MultiReader(bytes.NewReader(rd.Bytes()), failedReader{rerr}))
	} else {
		req, err = parseHashBody(rd.Bytes())
	}
	body := rd.Bytes()
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	// The keys are substrings of a copy of the body, so the buffer is
	// free for the response from here on.
	resp := body[:0]
	switch {
	case req.Key != nil && len(req.Keys) == 0:
		h, gen := ah.HashGen(*req.Key)
		resp = strconv.AppendUint(append(resp, `{"generation":`...), gen, 10)
		resp = append(appendHex64(append(resp, `,"hash":"`...), h), "\"}\n"...)
	case req.Key == nil && len(req.Keys) > 0:
		if len(req.Keys) > maxBatch {
			s.jsonError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d exceeds the %d-key limit", len(req.Keys), maxBatch))
			return
		}
		var hashBuf [stackBatch]uint64
		out := hashBuf[:]
		if len(req.Keys) > len(out) {
			out = make([]uint64, len(req.Keys))
		}
		gen := ah.HashBatch(req.Keys, out)
		resp = strconv.AppendUint(append(resp, `{"generation":`...), gen, 10)
		resp = append(resp, `,"hashes":[`...)
		for i, h := range out[:len(req.Keys)] {
			if i > 0 {
				resp = append(resp, ',')
			}
			resp = append(appendHex64(append(resp, '"'), h), '"')
		}
		resp = append(resp, "]}\n"...)
	default:
		s.jsonError(w, http.StatusBadRequest,
			errors.New(`body must carry exactly one of "key" or "keys"`))
		return
	}
	*buf = resp[:0] // pool the array, grown or not
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json; charset=utf-8")
	hdr.Set("Content-Length", strconv.Itoa(len(resp)))
	if _, err := w.Write(resp); err != nil {
		s.recordWriteError("hash-body", err)
	}
}

// hex64 renders a hash value for a response body: lowercase hex, not
// zero-padded.
func hex64(v uint64) string {
	var b [16]byte
	return string(appendHex64(b[:0], v))
}

// appendHex64 appends hex64(v) to dst.
func appendHex64(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 16) }

// parseHashBody decodes a hash request body. The canonical shapes,
// which json.Marshal of plain keys produces, are scanned in one pass
// by scanHashBody. Every other body goes through decodeHashRequest on
// the same bytes, so acceptance and error text are those of
// encoding/json by construction.
func parseHashBody(body []byte) (hashRequest, error) {
	if req, ok := scanHashBody(string(body)); ok {
		return req, nil
	}
	return decodeHashRequest(bytes.NewReader(body))
}

// decodeHashRequest decodes a hash request body with encoding/json.
// The request escapes into the decoder, so it is declared here, where
// only the bodies the scanner refuses pay for its allocation.
func decodeHashRequest(rd io.Reader) (hashRequest, error) {
	var req hashRequest
	err := decodeJSONFrom(rd, &req)
	return req, err
}

// failedReader replays a read error.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// scanHashBody parses the canonical hash request shapes
// {"key":"…"} and {"keys":["…",…]} (either member, both, or neither,
// each at most once, with JSON whitespace anywhere) in one pass over
// src. Member names must be lowercase and exact, and strings must
// hold no escape, no control byte and only valid UTF-8, so every key
// is a substring of src equal to what encoding/json would decode, and
// a batch costs one allocation, sized from a count of quotes. ok is
// false for any other input, which the caller hands to encoding/json.
func scanHashBody(src string) (req hashRequest, ok bool) {
	p := scanner{src: src}
	if !p.skip('{') {
		return req, false
	}
	if p.skip('}') {
		return req, p.end()
	}
	for {
		name, ok := p.str()
		if !ok || !p.skip(':') {
			return req, false
		}
		switch {
		case name == "key" && req.Key == nil:
			k, ok := p.str()
			if !ok {
				return req, false
			}
			req.Key = &k
		case name == "keys" && req.Keys == nil:
			if !p.skip('[') {
				return req, false
			}
			// Every key takes two of the body's quotes.
			req.Keys = make([]string, 0, strings.Count(src[p.i:], `"`)/2)
			if !p.skip(']') {
				for {
					k, ok := p.str()
					if !ok {
						return req, false
					}
					req.Keys = append(req.Keys, k)
					if p.skip(']') {
						break
					}
					if !p.skip(',') {
						return req, false
					}
				}
			}
		default:
			return req, false
		}
		if p.skip('}') {
			return req, p.end()
		}
		if !p.skip(',') {
			return req, false
		}
	}
}

// scanner is scanHashBody's cursor over the body.
type scanner struct {
	src string
	i   int
}

// ws skips JSON whitespace.
func (p *scanner) ws() {
	for p.i < len(p.src) {
		switch p.src[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// skip consumes whitespace and then c, reporting whether c was there.
// Whitespace stays consumed either way.
func (p *scanner) skip(c byte) bool {
	p.ws()
	if p.i < len(p.src) && p.src[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *scanner) end() bool {
	p.ws()
	return p.i == len(p.src)
}

// str consumes a canonical string and returns its contents as a
// substring of src.
func (p *scanner) str() (string, bool) {
	if !p.skip('"') {
		return "", false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.src); p.i++ {
		switch c := p.src[p.i]; {
		case c == '"':
			s := p.src[start:p.i]
			p.i++
			return s, ascii || utf8.ValidString(s)
		case c < 0x20 || c == '\\':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

func (s *server) handleExport(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	fn, err := t.servingPlan()
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	frame, err := wire.Encode(fn.Plan())
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", t.name+".sepeplan"))
	w.Header().Set("X-Sepe-Wire-Version", strconv.Itoa(wire.Version))
	if _, err := w.Write(frame); err != nil {
		s.recordWriteError("plan-frame", err)
	}
}

func (s *server) handleImport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, wire.MaxEncodedSize+1))
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > wire.MaxEncodedSize {
		s.jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("plan frame exceeds %d bytes", wire.MaxEncodedSize))
		return
	}
	d, err := wire.Decode(body)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("plan rejected: %w", err))
		return
	}
	t, err := s.reg.adopt(r.PathValue("name"), d, "import")
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	if s.reg.cache != nil {
		// Persist the imported frame verbatim so a restart replays it.
		if err := s.reg.cache.Save(t.name, body); err != nil {
			s.tel.Recorder().Instant("cache", "persist-failed",
				telemetry.Str("tenant", t.name), telemetry.Str("error", err.Error()))
		}
	}
	s.writeJSON(w, http.StatusCreated, t.status())
}

func (s *server) handleCertificate(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.lookup(r.PathValue("name"))
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	fn, err := t.servingPlan()
	if err != nil {
		s.jsonError(w, statusOf(err), err)
		return
	}
	cert := core.Certify(fn.Plan())
	s.writeJSON(w, http.StatusOK, map[string]any{
		"certificate": cert,
		"digest":      hex64(core.CertDigest(fn.Plan())),
	})
}

// decodeJSON reads a bounded JSON body, rejecting trailing garbage.
func decodeJSON(r *http.Request, v any) error {
	return decodeJSONFrom(io.LimitReader(r.Body, maxBody), v)
}

// decodeJSONFrom decodes one JSON value from rd, rejecting trailing
// garbage.
func decodeJSONFrom(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}
