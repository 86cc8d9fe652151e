package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rex"
	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/wire"
)

func rexParseT(expr string) (*pattern.Pattern, error) { return rex.ParseAndLower(expr) }

// newTestServer builds a daemon over a private telemetry registry (so
// parallel tests never collide on monitor names) and an optional
// cache directory.
func newTestServer(t *testing.T, cacheDir string) (*httptest.Server, *registry) {
	t.Helper()
	var cache *wire.Cache
	if cacheDir != "" {
		var err error
		cache, err = wire.OpenCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := newRegistry(telemetry.NewRegistry(), cache)
	reg.quick = true
	t.Cleanup(reg.close)
	ts := httptest.NewServer(newServer(reg).mux())
	t.Cleanup(ts.Close)
	return ts, reg
}

// doJSON performs a request with a JSON body and decodes the JSON
// response into out (skipped when out is nil).
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// register posts a format and waits for it to become ready.
func register(t *testing.T, base string, req registerRequest) tenantStatus {
	t.Helper()
	var st tenantStatus
	resp := doJSON(t, "POST", base+"/v1/formats", req, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register %q: status %d", req.Name, resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/formats/"+req.Name {
		t.Fatalf("register %q: Location = %q", req.Name, loc)
	}
	return waitReady(t, base, req.Name)
}

// waitReady polls the status endpoint until the tenant leaves pending.
func waitReady(t *testing.T, base, name string) tenantStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st tenantStatus
		resp := doJSON(t, "GET", base+"/v1/formats/"+name, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %q: %d", name, resp.StatusCode)
		}
		if st.State == "ready" {
			return st
		}
		if st.State == "failed" {
			t.Fatalf("tenant %q failed: %s", name, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q still %s after 10s", name, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

const ssnRegex = `[0-9]{3}-[0-9]{2}-[0-9]{4}`

func TestRegisterAndHash(t *testing.T) {
	ts, _ := newTestServer(t, "")
	st := register(t, ts.URL, registerRequest{Name: "ssn", Regex: ssnRegex})
	if st.Family != "Pext" || st.Source != "regex" || st.Generation != 1 {
		t.Fatalf("unexpected status: %+v", st)
	}

	// Single-key hash agrees with an in-process synthesis of the same
	// format (unkeyed synthesis is deterministic).
	var got struct {
		Hash       string `json:"hash"`
		Generation uint64 `json:"generation"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/hash/ssn", map[string]string{"key": "123-45-6789"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hash: status %d", resp.StatusCode)
	}
	pat, err := rexParseT(ssnRegex)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := core.Synthesize(pat, core.Pext, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%x", fn.Hash("123-45-6789")); got.Hash != want {
		t.Fatalf("hash = %s, in-process %s", got.Hash, want)
	}

	// Batch agrees with singles.
	keys := []string{"123-45-6789", "987-65-4321", "000-00-0000"}
	var batch struct {
		Hashes []string `json:"hashes"`
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/hash/ssn", map[string]any{"keys": keys}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch.Hashes) != len(keys) {
		t.Fatalf("batch returned %d hashes for %d keys", len(batch.Hashes), len(keys))
	}
	for i, k := range keys {
		if want := fmt.Sprintf("%x", fn.Hash(k)); batch.Hashes[i] != want {
			t.Errorf("batch[%d] = %s, want %s", i, batch.Hashes[i], want)
		}
	}

	// The list endpoint shows the tenant.
	var list struct {
		Formats []tenantStatus `json:"formats"`
	}
	doJSON(t, "GET", ts.URL+"/v1/formats", nil, &list)
	if len(list.Formats) != 1 || list.Formats[0].Name != "ssn" {
		t.Fatalf("list = %+v", list.Formats)
	}
}

func TestRegisterFromExamples(t *testing.T) {
	ts, _ := newTestServer(t, "")
	ex := []string{"12.34.56.78", "98.76.54.32", "11.22.33.44", "55.66.77.88"}
	st := register(t, ts.URL, registerRequest{Name: "quad", Examples: ex, Family: "offxor"})
	if st.Source != "examples" || st.Family != "OffXor" {
		t.Fatalf("unexpected status: %+v", st)
	}
	var got struct {
		Hash string `json:"hash"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/hash/quad", map[string]string{"key": "12.34.56.78"}, &got)
	if resp.StatusCode != http.StatusOK || got.Hash == "" {
		t.Fatalf("hash over inferred format: status %d, hash %q", resp.StatusCode, got.Hash)
	}
}

func TestErrorPaths(t *testing.T) {
	ts, reg := newTestServer(t, "")
	register(t, ts.URL, registerRequest{Name: "ssn", Regex: ssnRegex})

	// Unknown tenant: 404 on every per-tenant route.
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/formats/ghost"},
		{"POST", "/v1/hash/ghost"},
		{"GET", "/v1/formats/ghost/plan"},
		{"GET", "/v1/formats/ghost/certificate"},
		{"DELETE", "/v1/formats/ghost"},
	} {
		body := map[string]string{"key": "x"}
		resp := doJSON(t, tc.method, ts.URL+tc.path, body, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}

	// Duplicate registration: 409.
	resp := doJSON(t, "POST", ts.URL+"/v1/formats", registerRequest{Name: "ssn", Regex: ssnRegex}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: status %d, want 409", resp.StatusCode)
	}

	// Invalid registrations: 400.
	for name, body := range map[string]registerRequest{
		"bad-name":       {Name: "../evil", Regex: ssnRegex},
		"no-spec":        {Name: "x1"},
		"both-specs":     {Name: "x2", Regex: ssnRegex, Examples: []string{"a"}},
		"unknown-family": {Name: "x3", Regex: ssnRegex, Family: "sha256"},
	} {
		resp := doJSON(t, "POST", ts.URL+"/v1/formats", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Malformed JSON body: 400.
	r, err := http.Post(ts.URL+"/v1/hash/ssn", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", r.StatusCode)
	}

	// Neither key nor keys, and both at once: 400.
	for _, body := range []map[string]any{
		{},
		{"key": "a", "keys": []string{"b"}},
	} {
		resp := doJSON(t, "POST", ts.URL+"/v1/hash/ssn", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hash body %v: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Oversized batch: 413.
	big := make([]string, maxBatch+1)
	for i := range big {
		big[i] = "123-45-6789"
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/hash/ssn", map[string]any{"keys": big}, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}

	// Hash against a tenant whose initial synthesis is still running:
	// 503 with Retry-After. The pending tenant is planted directly —
	// real synthesis is too fast to race against reliably.
	reg.mu.Lock()
	reg.tenants["slow"] = &tenant{name: "slow", state: statePending, created: time.Now(), since: time.Now()}
	reg.mu.Unlock()
	resp = doJSON(t, "POST", ts.URL+"/v1/hash/slow", map[string]string{"key": "x"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pending hash: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("pending hash: missing Retry-After")
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/formats/slow/plan", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pending export: status %d, want 503", resp.StatusCode)
	}

	// A registration that fails synthesis parks in "failed" with the
	// error preserved.
	resp = doJSON(t, "POST", ts.URL+"/v1/formats", registerRequest{Name: "broken", Regex: "["}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register broken: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st tenantStatus
		doJSON(t, "GET", ts.URL+"/v1/formats/broken", nil, &st)
		if st.State == "failed" {
			if st.Error == "" {
				t.Error("failed tenant lost its error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant still %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/hash/broken", map[string]string{"key": "x"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("failed-tenant hash: status %d, want 503", resp.StatusCode)
	}
}

// TestPlanExport covers the export endpoint, including the assertion
// the threat model demands on every export: no seed material on the
// wire, even for keyed tenants.
func TestPlanExport(t *testing.T) {
	ts, _ := newTestServer(t, "")
	register(t, ts.URL, registerRequest{Name: "keyed", Regex: ssnRegex, Keyed: true, Family: "pext"})

	resp, err := http.Get(ts.URL + "/v1/formats/keyed/plan")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("export Content-Type = %q", ct)
	}
	d, err := wire.Decode(frame)
	if err != nil {
		t.Fatalf("exported frame does not decode: %v", err)
	}
	if !d.WasSeeded {
		t.Error("keyed tenant exported without the wasSeeded flag")
	}
	if d.Plan.Seed != nil {
		t.Fatal("exported plan carries seed material")
	}
	// The frame is byte-identical to the unseeded encoding of the same
	// structural plan except the flag byte — i.e. the seed has no
	// representation to leak.
	plain := *d.Plan
	plainFrame, err := wire.Encode(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainFrame) != len(frame) {
		t.Errorf("seeded export is %d bytes, unseeded re-encode %d", len(frame), len(plainFrame))
	}

	// Certificate endpoint: report the seeded verdict without material.
	var cert struct {
		Certificate core.Certificate `json:"certificate"`
		Digest      string           `json:"digest"`
	}
	resp2 := doJSON(t, "GET", ts.URL+"/v1/formats/keyed/certificate", nil, &cert)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("certificate: status %d", resp2.StatusCode)
	}
	if !cert.Certificate.Seeded {
		t.Error("certificate does not report seeding")
	}
	if cert.Digest == "" {
		t.Error("certificate digest missing")
	}
}

func TestPlanImport(t *testing.T) {
	ts, _ := newTestServer(t, "")
	register(t, ts.URL, registerRequest{Name: "src", Regex: ssnRegex})

	resp, err := http.Get(ts.URL + "/v1/formats/src/plan")
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// Import under a new name: the clone hashes identically (unkeyed).
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/formats/clone/plan", bytes.NewReader(frame))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st tenantStatus
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "ready" || st.Source != "import" {
		t.Fatalf("imported tenant: %+v", st)
	}
	var a, b struct {
		Hash string `json:"hash"`
	}
	doJSON(t, "POST", ts.URL+"/v1/hash/src", map[string]string{"key": "123-45-6789"}, &a)
	doJSON(t, "POST", ts.URL+"/v1/hash/clone", map[string]string{"key": "123-45-6789"}, &b)
	if a.Hash != b.Hash {
		t.Errorf("imported clone hashes %s, source %s", b.Hash, a.Hash)
	}

	// Malformed imports: 400 with the decoder's reason.
	for name, body := range map[string][]byte{
		"garbage":   []byte("not a plan"),
		"truncated": frame[:len(frame)-3],
		"corrupt": func() []byte {
			b := append([]byte(nil), frame...)
			b[len(b)/2] ^= 0xFF
			return b
		}(),
	} {
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/formats/bad/plan", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("import %s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Import under an invalid name: 400.
	req, _ = http.NewRequest("PUT", ts.URL+"/v1/formats/bad..name/plan", bytes.NewReader(frame))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("import bad name: status %d, want 400", resp.StatusCode)
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, dir)
	register(t, ts.URL, registerRequest{Name: "ssn", Regex: ssnRegex})

	cache, err := wire.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := cache.Names(); len(names) != 1 {
		t.Fatalf("cache after register: %v", names)
	}
	resp := doJSON(t, "DELETE", ts.URL+"/v1/formats/ssn", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/formats/ssn", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status after delete: %d, want 404", resp.StatusCode)
	}
	if names, _ := cache.Names(); len(names) != 0 {
		t.Errorf("cache entry survived delete: %v", names)
	}
}

// TestObservabilityEndpoints exercises the health, metrics and trace
// routes end to end.
func TestObservabilityEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, "")
	register(t, ts.URL, registerRequest{Name: "ssn", Regex: ssnRegex})

	for _, path := range []string{"/healthz", "/livez", "/metrics", "/metrics?format=json", "/debug/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", path)
		}
	}
	// The tenant's drift monitor surfaces in the metrics export.
	resp, _ := http.Get(ts.URL + "/metrics")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("ssn")) {
		t.Error("metrics export does not mention the tenant's monitor")
	}
}

// TestRestartFromCache is the persistence round trip in-process: a
// registry populated by registration, torn down, and rebuilt over the
// same cache directory must come back ready without synthesis and
// hash identically (unkeyed tenants).
func TestRestartFromCache(t *testing.T) {
	dir := t.TempDir()
	ts1, reg1 := newTestServer(t, dir)
	register(t, ts1.URL, registerRequest{Name: "ssn", Regex: ssnRegex})
	register(t, ts1.URL, registerRequest{Name: "mac", Regex: `([0-9a-f]{2}-){5}[0-9a-f]{2}`, Family: "offxor"})
	var before struct {
		Hash string `json:"hash"`
	}
	doJSON(t, "POST", ts1.URL+"/v1/hash/ssn", map[string]string{"key": "123-45-6789"}, &before)
	reg1.close()
	ts1.Close()

	// "Restart": fresh registry, same directory.
	ts2, reg2 := newTestServer(t, dir)
	n, err := reg2.preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("preloaded %d tenants, want 2", n)
	}
	st := waitReady(t, ts2.URL, "ssn")
	if st.Source != "cache" {
		t.Errorf("preloaded tenant source = %q, want cache", st.Source)
	}
	var after struct {
		Hash string `json:"hash"`
	}
	doJSON(t, "POST", ts2.URL+"/v1/hash/ssn", map[string]string{"key": "123-45-6789"}, &after)
	if before.Hash != after.Hash {
		t.Errorf("hash changed across restart: %s → %s", before.Hash, after.Hash)
	}
	waitReady(t, ts2.URL, "mac")
}

// driftUntil hashes batches of keyOf(0), keyOf(1), … into the tenant
// until its status satisfies done, and returns that status.
func driftUntil(t *testing.T, base, name string, keyOf func(int) string, done func(tenantStatus) bool) tenantStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; ; {
		var st tenantStatus
		doJSON(t, "GET", base+"/v1/formats/"+name, nil, &st)
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q: condition not reached after 20s (%d keys): %+v %+v", name, i, st, st.Drift)
		}
		keys := make([]string, 1024)
		for j := range keys {
			keys[j] = keyOf(i)
			i++
		}
		if resp := doJSON(t, "POST", base+"/v1/hash/"+name, map[string]any{"keys": keys}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("hash batch: status %d", resp.StatusCode)
		}
	}
}

// answerGeneration hashes one key and returns the generation the
// answer carries.
func answerGeneration(t *testing.T, base, name, key string) uint64 {
	t.Helper()
	var ans struct {
		Generation uint64 `json:"generation"`
	}
	if resp := doJSON(t, "POST", base+"/v1/hash/"+name, map[string]string{"key": key}, &ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("hash: status %d", resp.StatusCode)
	}
	return ans.Generation
}

// exportedRegex fetches the tenant's plan export and returns the
// status code and, on success, the exported plan's format.
func exportedRegex(t *testing.T, base, name string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/formats/" + name + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, ""
	}
	d, err := wire.Decode(frame)
	if err != nil {
		t.Fatalf("exported frame does not decode: %v", err)
	}
	return resp.StatusCode, d.Plan.Pattern.Regex()
}

// cachedRegex returns the format of the tenant's cache entry.
func cachedRegex(t *testing.T, dir, name string) string {
	t.Helper()
	cache, err := wire.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cache.Load(name)
	if err != nil {
		t.Fatalf("cache entry %q: %v", name, err)
	}
	return d.Plan.Pattern.Regex()
}

// digits20 is the registered format of the two drift tests below:
// the 16-digit keys of the first and the MAC keys of the second are
// both off-format for it.
const digits20 = `[0-9]{20}`

// macKey returns the i-th of a stream of distinct MAC addresses.
func macKey(i int) string {
	v := uint64(i) * 0x9E3779B97F4A7C15
	return fmt.Sprintf("%02x-%02x-%02x-%02x-%02x-%02x", byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48))
}

// TestSSNTenantsHealFromMACDrift drifts SSN tenants of the families
// that do not mix onto MAC keys. Their hash values on those keys carry
// no sign of the drift, so the adaptive hash must pick the keys it
// checks by call count for the tenant to notice, fall back and promote
// a MAC plan.
func TestSSNTenantsHealFromMACDrift(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())
	for _, fam := range []string{"pext", "naive", "offxor"} {
		t.Run(fam, func(t *testing.T) {
			register(t, ts.URL, registerRequest{Name: fam, Regex: ssnRegex, Family: fam})
			st := driftUntil(t, ts.URL, fam, macKey, func(st tenantStatus) bool { return st.Adaptive == "Recovered" })
			if st.Backend == "fallback" || strings.Count(st.Regex, "-") != 5 {
				t.Errorf("status after the heal: backend %q regex %q, want a promoted MAC plan", st.Backend, st.Regex)
			}
		})
	}
}

// TestRejectedCandidateNeverSurfaces drifts a Naive tenant onto keys
// of 16 digits whose two 8-byte halves are equal. Naive xors the
// halves, so every re-synthesized candidate hashes them all to one
// value; the healing loop's collision probe rejects each one until the
// circuit breaker pins the fallback. No rejected candidate may reach
// status, export, the certificate or the plan cache, before or after
// shutdown.
func TestRejectedCandidateNeverSurfaces(t *testing.T) {
	dir := t.TempDir()
	ts, reg := newTestServer(t, dir)
	register(t, ts.URL, registerRequest{Name: "twin", Regex: digits20, Family: "naive"})
	twin := func(i int) string {
		half := fmt.Sprintf("%08d", i*7919%100000000)
		return half + half
	}
	st := driftUntil(t, ts.URL, "twin", twin, func(st tenantStatus) bool { return st.Adaptive == "Pinned" })

	if st.Backend != "fallback" || st.Regex != digits20 {
		t.Errorf("status while the fallback serves: backend %q regex %q, want fallback %q", st.Backend, st.Regex, digits20)
	}
	if gen := answerGeneration(t, ts.URL, "twin", twin(1)); st.Generation != gen {
		t.Errorf("status generation %d, hash answers carry %d", st.Generation, gen)
	}
	if code, _ := exportedRegex(t, ts.URL, "twin"); code != http.StatusConflict {
		t.Errorf("export while the fallback serves: status %d, want 409", code)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/formats/twin/certificate", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("certificate while the fallback serves: status %d, want 409", resp.StatusCode)
	}
	if got := cachedRegex(t, dir, "twin"); got != digits20 {
		t.Errorf("cache holds %q, want the registered plan %q", got, digits20)
	}
	reg.close()
	if got := cachedRegex(t, dir, "twin"); got != digits20 {
		t.Errorf("cache after shutdown holds %q, want the registered plan %q", got, digits20)
	}
}

// TestHealedPlanSurfacesEverywhere drifts a tenant onto MAC keys
// until the healing loop promotes a MAC plan. Status must then report
// the generation hash answers carry and describe the promoted plan,
// export and the certificate must describe it too, and shutdown must
// leave it in the plan cache.
func TestHealedPlanSurfacesEverywhere(t *testing.T) {
	dir := t.TempDir()
	ts, reg := newTestServer(t, dir)
	register(t, ts.URL, registerRequest{Name: "num", Regex: digits20})
	st := driftUntil(t, ts.URL, "num", macKey, func(st tenantStatus) bool { return st.Adaptive == "Recovered" })

	if gen := answerGeneration(t, ts.URL, "num", macKey(0)); st.Generation != gen || gen < 3 {
		t.Errorf("status generation %d, hash answers carry %d; want the same, at least 3 (registered, fallback, promoted)", st.Generation, gen)
	}
	if st.Backend == "fallback" || !strings.Contains(st.Regex, "-") {
		t.Fatalf("status after the heal: backend %q regex %q, want the promoted MAC plan", st.Backend, st.Regex)
	}
	if code, got := exportedRegex(t, ts.URL, "num"); code != http.StatusOK || got != st.Regex {
		t.Errorf("export after the heal: status %d regex %q, want 200 %q", code, got, st.Regex)
	}
	var cert struct {
		Certificate core.Certificate `json:"certificate"`
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/formats/num/certificate", nil, &cert); resp.StatusCode != http.StatusOK || cert.Certificate.Regex != st.Regex {
		t.Errorf("certificate after the heal: status %d regex %q, want 200 %q", resp.StatusCode, cert.Certificate.Regex, st.Regex)
	}
	reg.close()
	if got := cachedRegex(t, dir, "num"); got != st.Regex {
		t.Errorf("cache after shutdown holds %q, want the promoted plan %q", got, st.Regex)
	}
}
