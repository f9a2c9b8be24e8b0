//go:build gentable

package npn

// The gentable build tag compiles this empty table in place of the
// generated table.go, so the generator builds even when table.go is
// missing or no longer compiles.

var tableSynth Synthesizer

var table = [...]entry{}
