// Command compare judges a change against its parent from two sets of
// benchmark runs. Each result file is the standard output of one run
// of the benchmark (a detail line, then a result line, per workload).
// compare prints one row per workload and metric with each side's
// median and quartiles, and for the end-to-end metrics a verdict:
//
//	go run ./compare -bench ../BENCHMARK.json -parent 'runs/parent/*.out' -change 'runs/change/*.out'
//
// Verdicts, in the order they are decided:
//
//   - better: at least 10 pairs of runs (the i-th parent and change
//     files in name order, so run them alternately), the change wins at
//     least nine tenths of them, and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: either side's interquartile range, as a share of its
//     median, exceeds the metric's bound, and not every change run reads
//     better than every parent run;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
//
// compare exits 1 when any row is worse or any run failed a check, and
// 2 when it cannot read its inputs.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runs holds, per workload and metric, one value per run in file order.
type runs struct {
	values map[string]map[string][]float64
	failed int // runs whose checks failed
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark description with the metric bounds")
	parentGlob := fs.String("parent", "", "glob of the parent's result files")
	changeGlob := fs.String("change", "", "glob of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var s spec
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, err := load(*parentGlob)
	if err != nil {
		fmt.Fprintln(stderr, "compare: parent:", err)
		return 2
	}
	change, err := load(*changeGlob)
	if err != nil {
		fmt.Fprintln(stderr, "compare: change:", err)
		return 2
	}

	var names []string
	for w := range parent.values {
		names = append(names, w)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(stdout, "%-12s %-30s %-36s %-36s %9s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	for _, w := range names {
		for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
			p, c := parent.values[w][m.Name], change.values[w][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := "-"
			if m.Bound > 0 {
				v = verdict(p, c, m.Better == "higher", m.Bound)
			}
			if v == "worse" {
				code = 1
			}
			pm, cm := median(p), median(c)
			fmt.Fprintf(stdout, "%-12s %-30s %-36s %-36s %+8.2f%%  %s\n", w, m.Name+" ("+m.Unit+")",
				summary(p), summary(c), (cm-pm)/pm*100, v)
		}
	}
	if parent.failed+change.failed > 0 {
		fmt.Fprintf(stdout, "failed runs: parent %d, change %d\n", parent.failed, change.failed)
		code = 1
	}
	return code
}

// load reads every result file matching pattern, in name order.
func load(pattern string) (*runs, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	sort.Strings(files)
	r := &runs{values: map[string]map[string][]float64{}}
	for _, f := range files {
		if err := r.read(f); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return r, nil
}

func (r *runs) read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	workload := ""
	for sc.Scan() {
		var line struct {
			Workload string `json:"workload"`
			Correct  *bool  `json:"correct"`
			Metrics  map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue // not one of the benchmark's JSON lines
		}
		switch {
		case line.Workload != "":
			workload = line.Workload
		case line.Correct != nil:
			if workload == "" {
				return errors.New("result line without a detail line before it")
			}
			if !*line.Correct {
				r.failed++
			}
			if r.values[workload] == nil {
				r.values[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				r.values[workload][name] = append(r.values[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return sc.Err()
}

// verdict compares the change's runs c with the parent's runs p.
func verdict(p, c []float64, higherIsBetter bool, bound float64) string {
	// better(a, b) reports whether value a reads better than value b.
	better := func(a, b float64) bool {
		if higherIsBetter {
			return a > b
		}
		return a < b
	}
	pm, cm := median(p), median(c)
	pq, cq := quartiles(p), quartiles(c)
	pairs := min(len(p), len(c))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	gap := cm - pm
	if !higherIsBetter {
		gap = -gap
	}
	if pairs >= 10 && wins*10 >= pairs*9 && gap > pq[2]-pq[0] {
		return "better"
	}
	spread := max((pq[2]-pq[0])/pm, (cq[2]-cq[0])/cm)
	if spread > bound && !allBetter(c, p, better) {
		return "unresolved"
	}
	if -gap/pm > bound {
		return "worse"
	}
	return "unchanged"
}

func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q[0], q[2])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spreads match the ones the bounds were set from.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	if n < 2 {
		for i := range q {
			q[i] = s[0]
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
