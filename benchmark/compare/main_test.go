package main

import "testing"

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name   string
		c      []float64
		higher bool
		want   string
	}{
		{"same runs", steady, false, "unchanged"},
		{"lower is better and dropped 10%", shift(steady, 0.9), false, "better"},
		{"lower is better and rose 10%", shift(steady, 1.1), false, "worse"},
		{"higher is better and rose 10%", shift(steady, 1.1), true, "better"},
		{"within the bound", shift(steady, 1.03), false, "unchanged"},
		{"wide spread", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, false, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(steady, c.c, c.higher, 0.05); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
