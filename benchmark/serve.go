package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// serveBench is serve-hash: a sepeserve daemon with sixteen unkeyed
// tenants — the RQ formats registered by regex, plus a twin of each
// imported from an in-process plan export — hashing keys for two
// keep-alive connections in a closed loop. HTTP, JSON, the handler and
// the socket dominate; no container is involved.
type serveBench struct {
	bin    string
	pools  [][]string   // per format
	oracle []*sepe.Hash // the daemon's plan, compiled in this process
	want   [][]uint64   // oracle hash of each pool key
	tape   []serveReq
	ladder []ladderTable
	client *http.Client

	d                    *daemon
	registerMs, importMs []float64
	chk                  checker
}

// serveReq is one pre-encoded request of the tape.
type serveReq struct {
	path string
	f    int     // format index
	idx  []int32 // pool indices of the keys, in request order
	body []byte
}

// serveBatch is the key count of a batch request.
const serveBatch = 64

func tenantName(t keys.Type, twin bool) string {
	name := "rq-" + strings.ToLower(t.Name())
	if twin {
		name += "-twin"
	}
	return name
}

func newServeBench(seed uint64, scale float64, bin string) (*serveBench, error) {
	b := &serveBench{
		bin: bin,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: workers,
				MaxConnsPerHost:     workers,
				DisableCompression:  true,
			},
		},
	}
	per := scaled(4096, scale, 256)
	for _, t := range keys.All {
		pool := keys.NewGenerator(t, keys.Uniform, seed).Distinct(per)
		f, err := sepe.ParseRegex(t.Regex())
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", t, err)
		}
		h, err := sepe.Synthesize(f, sepe.Pext)
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", t, err)
		}
		want := make([]uint64, len(pool))
		h.HashBatch(pool, want)
		b.pools = append(b.pools, pool)
		b.oracle = append(b.oracle, h)
		b.want = append(b.want, want)
		res, miss := splitPool(pool)
		b.ladder = append(b.ladder, ladderTable{name: t.Name() + "/Pext", hash: h, res: res, miss: miss})
	}

	// A uniform tenant per request; 90% carry a batch, 10% one key.
	r := rng.New(seed ^ 0x5e7e)
	b.tape = make([]serveReq, scaled(4096, scale, 256))
	for i := range b.tape {
		t := r.Intn(2 * len(keys.All))
		f := t % len(keys.All)
		n := serveBatch
		if r.Intn(10) == 0 {
			n = 1
		}
		rq := serveReq{path: "/v1/hash/" + tenantName(keys.All[f], t >= len(keys.All)), f: f}
		ks := make([]string, n)
		for j := range ks {
			idx := r.Intn(len(b.pools[f]))
			rq.idx = append(rq.idx, int32(idx))
			ks[j] = b.pools[f][idx]
		}
		var err error
		if n == 1 {
			rq.body, err = json.Marshal(map[string]string{"key": ks[0]})
		} else {
			rq.body, err = json.Marshal(map[string][]string{"keys": ks})
		}
		if err != nil {
			return nil, err
		}
		b.tape[i] = rq
	}
	return b, nil
}

// setup starts a daemon, registers the eight regex tenants, imports
// their twins from in-process plan exports, and waits until every
// tenant is ready.
func (b *serveBench) setup(tr *tracer) error {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	id := tr.begin("sepeserve.start", root)
	d, err := startDaemon(b.bin)
	tr.end(id)
	if err != nil {
		return err
	}
	b.d = d
	if err := b.register(tr, root); err != nil {
		b.teardown()
		return err
	}
	return nil
}

func (b *serveBench) register(tr *tracer, root int32) error {
	posted := make([]time.Time, len(keys.All))
	for f, t := range keys.All {
		body, err := json.Marshal(map[string]string{"name": tenantName(t, false), "regex": t.Regex()})
		if err != nil {
			return err
		}
		posted[f] = time.Now()
		if err := b.expect(http.MethodPost, "/v1/formats", body, http.StatusAccepted, nil); err != nil {
			return fmt.Errorf("register %s: %w", t, err)
		}
	}
	for f, t := range keys.All {
		id := tr.begin("wire.ExportPlan", root)
		frame, err := b.oracle[f].ExportPlan()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("export %s: %w", t, err)
		}
		t0 := time.Now()
		if err := b.expect(http.MethodPut, "/v1/formats/"+tenantName(t, true)+"/plan", frame, http.StatusCreated, nil); err != nil {
			return fmt.Errorf("import %s: %w", t, err)
		}
		t1 := time.Now()
		b.importMs = append(b.importMs, ms(t1.Sub(t0)))
		tr.add("sepeserve.import", root, t0, t1)
	}
	pending := len(keys.All)
	ready := make([]bool, len(keys.All))
	for deadline := time.Now().Add(10 * time.Second); pending > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d tenant(s) not ready within 10s", pending)
		}
		for f, t := range keys.All {
			if ready[f] {
				continue
			}
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := b.expect(http.MethodGet, "/v1/formats/"+tenantName(t, false), nil, http.StatusOK, &st); err != nil {
				return fmt.Errorf("status %s: %w", t, err)
			}
			switch st.State {
			case "ready":
				now := time.Now()
				ready[f] = true
				pending--
				b.registerMs = append(b.registerMs, ms(now.Sub(posted[f])))
				tr.add("sepeserve.register", root, posted[f], now)
			case "failed":
				return fmt.Errorf("tenant %s failed: %s", t, st.Error)
			}
		}
	}
	return nil
}

// expect makes one set-up call and requires status; a JSON answer is
// decoded into out when out is not nil.
func (b *serveBench) expect(method, path string, body []byte, status int, out any) error {
	req, err := http.NewRequest(method, b.d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	got, err := b.roundTrip(req, &buf)
	if err != nil {
		return err
	}
	if got != status {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, got, status, bytes.TrimSpace(buf.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(buf.Bytes(), out)
	}
	return nil
}

// teardown stops the daemon; an unclean exit is a failed check.
func (b *serveBench) teardown() {
	if b.d == nil {
		return
	}
	if err := b.d.stop(); err != nil {
		b.chk.fail("sepeserve: %v", err)
	}
	b.d = nil
}

// measure drives the tape from two keep-alive connections until d has
// passed. Traced runs also break one request in 64 down with
// httptrace and time the same keys hashed in-process.
func (b *serveBench) measure(d time.Duration, tr *tracer) (*stats, error) {
	st := &stats{}
	root := tr.begin("measure", 0)
	defer tr.end(root)
	var details [workers]serveDetail
	deadline := time.Now().Add(d)
	st.windows = parallel(windowSpan, &b.chk, func(w int, rec *recorder, tl *tally) {
		var (
			buf  bytes.Buffer
			det  = &details[w]
			out  = make([]uint64, serveBatch)
			keys = make([]string, 0, serveBatch)
		)
		for i := w * len(b.tape) / workers; ; i++ {
			rq := &b.tape[i%len(b.tape)]
			sampled := tr != nil && i%64 == 0
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodPost, b.d.base+rq.path, bytes.NewReader(rq.body))
			if err != nil {
				b.chk.fail("serve: %v", err)
				return
			}
			// The transport calls the trace hooks from its own goroutines.
			var wrote, first atomic.Int64
			if sampled {
				req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
					WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(t0))) },
					GotFirstResponseByte: func() { first.Store(int64(time.Since(t0))) },
				}))
			}
			status, err := b.roundTrip(req, &buf)
			t1 := time.Now()
			rec.record(t0, t1, int64(len(rq.idx)))
			det.reqBytes += int64(len(rq.body))
			det.respBytes += int64(buf.Len())
			det.keys += int64(len(rq.idx))
			switch {
			case err != nil:
				b.chk.fail("serve: %s: %v", rq.path, err)
			case status != http.StatusOK:
				b.chk.fail("serve: %s: status %d: %s", rq.path, status, bytes.TrimSpace(buf.Bytes()))
			default:
				b.verify(rq, buf.Bytes(), tl)
			}
			if sampled && err == nil && status == http.StatusOK {
				c1 := time.Now()
				keys = keys[:0]
				for _, idx := range rq.idx {
					keys = append(keys, b.pools[rq.f][idx])
				}
				l0 := time.Now()
				b.oracle[rq.f].HashBatch(keys, out)
				l1 := time.Now()
				det.ttfbUs = append(det.ttfbUs, float64(first.Load()-wrote.Load())/1e3)
				det.bodyUs = append(det.bodyUs, float64(int64(t1.Sub(t0))-first.Load())/1e3)
				det.clientUs = append(det.clientUs, float64(c1.Sub(t1))/1e3)
				det.hashShares = append(det.hashShares, float64(l1.Sub(l0))/float64(t1.Sub(t0)))
				tr.add("sepeserve.request", root, t0, t1)
			}
			if !t1.Before(deadline) {
				return
			}
		}
	})
	if tr != nil {
		st.serve = &serveDetail{}
		for i := range details {
			st.serve.merge(&details[i])
		}
	}
	return st, nil
}

// roundTrip sends req and reads the whole answer into buf, so the
// connection returns to the keep-alive pool.
func (b *serveBench) roundTrip(req *http.Request, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, err
}

// verify checks an answer against the in-process hashes of the same
// plan. Hash values are hex without padding.
func (b *serveBench) verify(rq *serveReq, data []byte, tl *tally) {
	var got struct {
		Hash       *string  `json:"hash"`
		Hashes     []string `json:"hashes"`
		Generation uint64   `json:"generation"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		b.chk.fail("serve: %s: %v", rq.path, err)
		return
	}
	tl.check(got.Generation == 1)
	hashes := got.Hashes
	if got.Hash != nil {
		hashes = []string{*got.Hash}
	}
	if len(hashes) != len(rq.idx) {
		b.chk.fail("serve: %s: %d hashes for %d keys", rq.path, len(hashes), len(rq.idx))
		return
	}
	for j, s := range hashes {
		v, err := strconv.ParseUint(s, 16, 64)
		tl.check(err == nil && v == b.want[rq.f][rq.idx[j]])
	}
}

// bcoll fills a map per format with the pool keys under the oracle
// function, which every served hash was checked against.
func (b *serveBench) bcoll() float64 {
	maps := make([]*sepe.Map[int], len(b.oracle))
	for f, h := range b.oracle {
		maps[f] = newPlainMap(h)
	}
	fill(maps, b.pools, &b.chk)
	return bcollRatio(maps)
}

func (b *serveBench) rssPID() int { return b.d.cmd.Process.Pid }

func (b *serveBench) ladderTables() []ladderTable { return b.ladder }

func (b *serveBench) checker() *checker { return &b.chk }

// daemon is one running sepeserve process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs chan struct{} // closed when the daemon's stderr reaches EOF
	tail []string      // its last log lines; read only after logs is closed
}

// startDaemon runs bin on a free loopback port and waits until it
// listens.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// A benchmark killed mid-run must not leave the daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sepeserve: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
		}
	}()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logs:
		err := cmd.Wait()
		return nil, fmt.Errorf("sepeserve exited during start-up (%v): %s", err, strings.Join(d.tail, "; "))
	case <-timer.C:
		d.kill()
		return nil, errors.New("sepeserve did not listen within 10s")
	}
}

// stop sends SIGTERM and requires a zero exit within 15 seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal: %w", err)
	}
	timer := time.NewTimer(15 * time.Second)
	defer timer.Stop()
	select {
	case <-d.logs:
	case <-timer.C:
		d.kill()
		return errors.New("no exit within 15s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("exit after SIGTERM: %v: %s", err, strings.Join(d.tail, "; "))
	}
	return nil
}

// kill ends the daemon and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.logs
	_ = d.cmd.Wait() // the exit status of a killed process carries no news
}
