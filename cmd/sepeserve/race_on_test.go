//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a random share of what it is handed, so
// allocation counts of pooled paths are not repeatable.
const raceEnabled = true
