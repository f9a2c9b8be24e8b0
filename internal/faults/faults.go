// Package faults is a deterministic, seedable fault-injection registry
// for testing the failure paths of the design service. Production code
// declares named fault points at the places failures can occur — disk
// cache I/O, solver dispatch, SAT solving, queue workers — and asks the
// registry whether the point fires on this call:
//
//	if err := faults.Fail("cache.disk.read"); err != nil {
//	    return nil, false, err
//	}
//	if faults.Should("service.job.panic") {
//	    panic("injected worker panic")
//	}
//
// The registry is disarmed by default and the disarmed fast path is one
// atomic load with no locking and no allocation, so fault points are free
// in production binaries. Arming happens explicitly (the bestagond
// -faults flag or the BESTAGOND_FAULTS environment variable) with a spec
// string of the form
//
//	point=trigger[;point=trigger...]
//
// where trigger is one of
//
//	p:0.2     fire with probability 0.2 per call
//	n:5       fire on exactly the 5th call of this point
//	every:3   fire on every 3rd call
//	always    fire on every call
//
// Probability triggers draw from a single rand.Rand seeded via Arm, so a
// fixed (spec, seed) pair replays the exact same fault schedule — chaos
// test failures reproduce deterministically.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// armed is the global fast-path switch: while false, Should and Fail
// return immediately after one atomic load.
var armed atomic.Bool

var (
	mu     sync.Mutex
	points map[string]*point
	rng    *rand.Rand
)

// point is one armed fault point and its trigger.
type point struct {
	prob   float64 // fire with this probability (0 = disabled)
	nth    int64   // fire on exactly this call number (0 = disabled)
	every  int64   // fire on every k-th call (0 = disabled)
	always bool
	calls  int64
	fired  int64
}

// Injected classifies every error produced by Fail; use
// errors.Is(err, faults.Injected) to recognize injected failures (the
// retry layer treats them as transient).
var Injected = errors.New("injected fault")

// Error is the concrete injected-failure error, carrying the point name.
type Error struct{ Point string }

// Error formats the injected failure.
func (e *Error) Error() string { return "faults: injected failure at " + e.Point }

// Is makes errors.Is(err, faults.Injected) true for injected errors.
func (e *Error) Is(target error) bool { return target == Injected }

// Arm parses a fault spec (see the package comment for the grammar) and
// arms the registry with a deterministic random source. An empty spec
// disarms. Arm replaces any previous arming wholesale.
func Arm(spec string, seed int64) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disarm()
		return nil
	}
	parsed := map[string]*point{}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, trigger, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return fmt.Errorf("faults: bad spec entry %q (want point=trigger)", entry)
		}
		pt, err := parseTrigger(strings.TrimSpace(trigger))
		if err != nil {
			return fmt.Errorf("faults: point %s: %w", name, err)
		}
		parsed[name] = pt
	}
	if len(parsed) == 0 {
		return fmt.Errorf("faults: spec %q contains no points", spec)
	}
	mu.Lock()
	points = parsed
	rng = rand.New(rand.NewSource(seed))
	mu.Unlock()
	armed.Store(true)
	return nil
}

// parseTrigger parses one trigger expression.
func parseTrigger(s string) (*point, error) {
	switch {
	case s == "always":
		return &point{always: true}, nil
	case strings.HasPrefix(s, "p:"):
		p, err := strconv.ParseFloat(s[2:], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("bad probability %q (want p:0.0..1.0)", s)
		}
		return &point{prob: p}, nil
	case strings.HasPrefix(s, "n:"):
		n, err := strconv.ParseInt(s[2:], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad call number %q (want n:1..)", s)
		}
		return &point{nth: n}, nil
	case strings.HasPrefix(s, "every:"):
		k, err := strconv.ParseInt(s[len("every:"):], 10, 64)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad period %q (want every:1..)", s)
		}
		return &point{every: k}, nil
	default:
		return nil, fmt.Errorf("unknown trigger %q (want p:X, n:K, every:K, or always)", s)
	}
}

// Disarm removes every fault point and restores the zero-cost fast path.
func Disarm() {
	armed.Store(false)
	mu.Lock()
	points = nil
	rng = nil
	mu.Unlock()
}

// Should reports whether the named fault point fires on this call. It
// always returns false while the registry is disarmed or when the point
// was not named in the spec.
func Should(name string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	pt, ok := points[name]
	if !ok {
		return false
	}
	pt.calls++
	fire := false
	switch {
	case pt.always:
		fire = true
	case pt.prob > 0:
		fire = rng.Float64() < pt.prob
	case pt.nth > 0:
		fire = pt.calls == pt.nth
	case pt.every > 0:
		fire = pt.calls%pt.every == 0
	}
	if fire {
		pt.fired++
	}
	return fire
}

// Fail returns an injected *Error when the named point fires, nil
// otherwise. It is the error-shaped twin of Should for call sites that
// propagate failures rather than panic.
func Fail(name string) error {
	if Should(name) {
		return &Error{Point: name}
	}
	return nil
}

// Counts snapshots the fired count of every armed point (for tests and
// diagnostics). It returns nil while disarmed.
func Counts() map[string]int64 {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int64, len(points))
	for name, pt := range points {
		out[name] = pt.fired
	}
	return out
}
