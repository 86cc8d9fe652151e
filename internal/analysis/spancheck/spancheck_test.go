package spancheck_test

import (
	"testing"

	"github.com/sepe-go/sepe/internal/analysis/analysistest"
	"github.com/sepe-go/sepe/internal/analysis/spancheck"
)

// fakeTelemetry mimics the real package's StartEvent shape closely
// enough for the suffix-based matcher.
const fakeTelemetry = `package telemetry

type Attr struct{ Key, Val string }

type Recorder struct{}

func StartEvent(r *Recorder, cat, name string, attrs ...Attr) func(attrs ...Attr) {
	return func(...Attr) {}
}
`

func run(t *testing.T, app string) []string {
	t.Helper()
	return analysistest.Run(t, map[string]string{
		"telemetry/telemetry.go": fakeTelemetry,
		"app/app.go":             app,
	}, spancheck.Analyzer)
}

func TestLeakOnEarlyReturn(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func f(cond bool) error {
	done := telemetry.StartEvent(nil, "c", "f")
	if cond {
		return nil
	}
	done()
	return nil
}
`)
	analysistest.Expect(t, got, "return leaks span done-func done")
}

// An early return that skips the end call leaks the flight-recorder
// event, and defer satisfies every exit.
func TestStartEventLeakAndPairing(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func leaky(cond bool) error {
	end := telemetry.StartEvent(nil, "adaptive", "heal")
	if cond {
		return nil
	}
	end()
	return nil
}

func deferred() {
	end := telemetry.StartEvent(nil, "adaptive", "resynth", telemetry.Attr{Key: "attempt", Val: "1"})
	defer end()
}

func direct(cond bool) error {
	end := telemetry.StartEvent(nil, "synth", "plan")
	if cond {
		end(telemetry.Attr{Key: "ok", Val: "false"})
		return nil
	}
	end()
	return nil
}
`)
	analysistest.Expect(t, got, "return leaks span done-func end")
}

func TestStartEventDoubleCall(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func f() {
	end := telemetry.StartEvent(nil, "synth", "plan")
	end()
	end()
}
`)
	analysistest.Expect(t, got, "called twice on this path")
}

// A call on only one branch merges to "maybe", which stays silent:
// the checker would rather miss this than cry wolf.
func TestMaybeIsSilent(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

var sink int

func f() {
	done := telemetry.StartEvent(nil, "c", "f")
	sink++
	if sink > 3 {
		done()
	}
}
`)
	analysistest.Expect(t, got)
}

func TestProperPairingIsClean(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func direct(cond bool) error {
	done := telemetry.StartEvent(nil, "c", "direct")
	if cond {
		done()
		return nil
	}
	done(telemetry.Attr{Key: "k", Val: "v"})
	return nil
}

func deferred(cond bool) error {
	done := telemetry.StartEvent(nil, "c", "deferred")
	defer done()
	if cond {
		return nil
	}
	return nil
}

func deferredClosure() {
	done := telemetry.StartEvent(nil, "c", "closure")
	n := 0
	defer func() { done(telemetry.Attr{Key: "n", Val: "x"}) }()
	n++
	_ = n
}
`)
	analysistest.Expect(t, got)
}

func TestDoubleCall(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func f() {
	done := telemetry.StartEvent(nil, "c", "f")
	done()
	done()
}
`)
	analysistest.Expect(t, got, "called twice on this path")
}

func TestDeferAfterCall(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func f() {
	done := telemetry.StartEvent(nil, "c", "f")
	done()
	defer done()
}
`)
	analysistest.Expect(t, got, "deferred after already being called")
}

func TestEscapesAreSilent(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func keep(f func(...telemetry.Attr)) {}

func escapeArg() {
	done := telemetry.StartEvent(nil, "c", "f")
	keep(done)
}

func escapeCapture() func() {
	done := telemetry.StartEvent(nil, "c", "f")
	return func() { done() }
}
`)
	analysistest.Expect(t, got)
}

func TestLoopCallsAreSilent(t *testing.T) {
	got := run(t, `package app

import "sepevet.test/m/telemetry"

func f(n int) {
	done := telemetry.StartEvent(nil, "c", "f")
	for i := 0; i < n; i++ {
		done()
	}
}
`)
	analysistest.Expect(t, got)
}
