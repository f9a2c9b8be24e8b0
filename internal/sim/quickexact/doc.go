// Package quickexact is empty. The QuickExact engine lives in package sim
// ((*sim.Engine).QuickExact, solver name "quickexact"); this package
// remains only because the benchmark module (cmd/bench) still imports it.
package quickexact
