package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: 32
// sub-buckets per power of two, so a bucket is at most 3.2% wide, up to
// 2^37 ns (137 s), in fixed memory however many samples a run records.
// It is small because a run keeps one per window, and the windows live
// in the process whose peak RSS table-hot reports.
type hist struct {
	counts [histSub * (histMaxExp + 2)]uint32
	n      uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxExp  = 31
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	if e > histMaxExp {
		return len(hist{}.counts) - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketRange returns the [lo, hi) values bucket i holds.
func bucketRange(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := uint(i/histSub - 1)
	m := uint64(i%histSub + histSub)
	return float64(m << e), float64((m + 1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := bucketRange(i)
			return lo + (rank-cum+0.5)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

// checker counts the outputs the oracles checked and the ones that
// were wrong. Workers keep local counts and add them once.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func (c *checker) add(attempted, failed int64) {
	c.mu.Lock()
	c.attempted += attempted
	c.failed += failed
	c.mu.Unlock()
}

// fail records one failed check with a note for the diagnostics.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.attempted++
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// merge adds the checks of o, a checker no longer in use.
func (c *checker) merge(o *checker) {
	a, f, notes := o.counts()
	c.mu.Lock()
	c.attempted += a
	c.failed += f
	c.notes = append(c.notes, notes...)
	c.mu.Unlock()
}

func (c *checker) counts() (attempted, failed int64, notes []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.notes...)
}

// tally is one worker's oracle counts.
type tally struct{ attempted, failed int64 }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// heal is one drift episode, timed from its first drifted operation.
type heal struct {
	start                    time.Time
	detect, resynth, migrate time.Duration
	attempts                 uint64
}

func (h heal) total() time.Duration { return h.detect + h.resynth + h.migrate }

// serveDetail is what the traced requests of a serve loop saw.
type serveDetail struct {
	ttfbUs, bodyUs, clientUs []float64
	hashShares               []float64 // in-process hash time over request time
	reqBytes, respBytes      int64     // sums over every request
	keys                     int64
}

func (d *serveDetail) merge(o *serveDetail) {
	d.ttfbUs = append(d.ttfbUs, o.ttfbUs...)
	d.bodyUs = append(d.bodyUs, o.bodyUs...)
	d.clientUs = append(d.clientUs, o.clientUs...)
	d.hashShares = append(d.hashShares, o.hashShares...)
	d.reqBytes += o.reqBytes
	d.respBytes += o.respBytes
	d.keys += o.keys
}

// window is one short stretch of a measured loop: a fixed slice of its
// time, or one slot of one cycle of a cyclic workload.
type window struct {
	// slot names the work the window did. Windows of one slot did the
	// same work: every time slice of a timed loop is slot 0, and a
	// cyclic workload gives each stretch of its cycle a slot of its own.
	slot    int
	ops     int64         // container calls, or keys hashed on serve-hash
	elapsed time.Duration // time spent driving work
	lat     hist          // one sample per batch or request
}

func (w *window) add(o *window) {
	w.ops += o.ops
	w.elapsed += o.elapsed
	w.lat.merge(&o.lat)
}

func (w *window) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// recorder collects one worker's batches into windows: consecutive
// slices of span from start, or, when span is 0, the window of the
// worker's current slot.
type recorder struct {
	start time.Time
	span  time.Duration
	slot  int
	wins  []window
}

// record adds a batch of ops that ran from t0 to t1.
func (r *recorder) record(t0, t1 time.Time, ops int64) {
	i := r.slot
	if r.span > 0 {
		i = int(t0.Sub(r.start) / r.span)
	}
	for len(r.wins) <= i {
		w := window{}
		if r.span == 0 {
			w.slot = len(r.wins)
		}
		r.wins = append(r.wins, w)
	}
	w := &r.wins[i]
	w.ops += ops
	w.elapsed += t1.Sub(t0)
	w.lat.record(t1.Sub(t0))
}

// stats is what one measured closed loop saw. Its end-to-end timings
// come from its best windows: load from outside the benchmark only
// ever slows a window, so the fastest windows of a slot are the least
// disturbed, while a slower program slows every window, the best
// included.
type stats struct {
	windows   []window
	heals     []heal
	migrateOp hist // per-op time of batches run while migrating
	serve     *serveDetail
}

// merge adds the loop o measured after s.
func (s *stats) merge(o *stats) {
	s.windows = append(s.windows, o.windows...)
	s.heals = append(s.heals, o.heals...)
	s.migrateOp.merge(&o.migrateOp)
	if o.serve != nil {
		if s.serve == nil {
			s.serve = &serveDetail{}
		}
		s.serve.merge(o.serve)
	}
}

// workers is the number of goroutines driving the concurrent
// workloads: one per vCPU of the machine the bounds were set on.
const workers = 2

// parallel runs work on every worker, each with its own recorder over
// span from now, waits for all of them, and merges their windows of
// the same time slice or slot: ops and samples add up, and a window's
// elapsed time is the longest any worker spent in it.
func parallel(span time.Duration, chk *checker, work func(w int, rec *recorder, tl *tally)) []window {
	var (
		wg   sync.WaitGroup
		recs [workers]recorder
	)
	start := time.Now()
	for w := range recs {
		recs[w] = recorder{start: start, span: span}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tl tally
			work(w, &recs[w], &tl)
			chk.add(tl.attempted, tl.failed)
		}(w)
	}
	wg.Wait()
	var out []window
	for _, r := range recs {
		for i := range r.wins {
			if i == len(out) {
				out = append(out, window{slot: r.wins[i].slot})
			}
			o, w := &out[i], &r.wins[i]
			o.ops += w.ops
			o.elapsed = max(o.elapsed, w.elapsed)
			o.lat.merge(&w.lat)
		}
	}
	return nonEmpty(out)
}

// nonEmpty drops the windows without batches: a recorder by slot holds
// the slots before its own, and a batch slower than windowSpan leaves
// time slices empty. Windows are kept for the whole run.
func nonEmpty(ws []window) []window {
	out := ws[:0]
	for _, w := range ws {
		if w.lat.n > 0 {
			out = append(out, w)
		}
	}
	return out
}

// windowSpan is the length of a window on the workloads that have no
// cycles of their own.
const windowSpan = 50 * time.Millisecond

// bestShare is the share of each slot's windows, the fastest, that the
// end-to-end timings are taken from: one in bestShare, at least one.
const bestShare = 10

// best merges the windows of highest throughput of every slot: a loop
// made of the least disturbed passes through each stretch of its work.
func (s *stats) best() *window {
	slots := map[int][]*window{}
	for i := range s.windows {
		w := &s.windows[i]
		slots[w.slot] = append(slots[w.slot], w)
	}
	out := &window{}
	for _, ws := range slots {
		sort.Slice(ws, func(i, j int) bool { return ws[i].rate() > ws[j].rate() })
		for _, w := range ws[:max(1, len(ws)/bestShare)] {
			out.add(w)
		}
	}
	return out
}

// opsPerSec is the throughput of the best windows.
func (s *stats) opsPerSec() float64 { return s.best().rate() }

// latency is the q-quantile of the batches of the best windows, in ns.
func (s *stats) latency(q float64) float64 { return s.best().lat.quantile(q) }

// tail is the q-quantile over every batch of the loop, in ns.
func (s *stats) tail(q float64) float64 {
	var all hist
	for i := range s.windows {
		all.merge(&s.windows[i].lat)
	}
	return all.quantile(q)
}

func (s *stats) samples() uint64 {
	var n uint64
	for _, w := range s.windows {
		n += w.lat.n
	}
	return n
}

// gcCount is the Go runtime's collector work since the process began.
type gcCount struct {
	cycles  uint64
	pauseMs float64
}

func gcNow() gcCount {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCount{cycles: uint64(m.NumGC), pauseMs: float64(m.PauseTotalNs) / 1e6}
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid, or of
// this process when pid is 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
