package gatelib

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// validatedVariants lists the tile designs whose dot-accurate
// implementations are ground-state-validated at the Fig. 5 parameters
// (EXPERIMENTS.md tracks the remaining best-effort designs).
var validatedVariants = []string{
	"wire:iNW:oSE", "wire:iNE:oSW",
	"diag:iNW:oSW", "diag:iNE:oSE",
	"pi:oSE", "pi:oSW",
	"po:iNW", "po:iNE",
	"inv:iNW:oSE", "inv:iNE:oSW",
}

func TestLibraryValidation(t *testing.T) {
	results := ValidateLibrary(sim.ParamsFig5)
	for _, key := range validatedVariants {
		v, ok := results[key]
		if !ok {
			t.Errorf("%s: design missing from library", key)
			continue
		}
		if !v.OK {
			t.Errorf("%s: validation failed: %v", key, v)
		}
	}
	// Report the full status (informational).
	var names []string
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	okCount := 0
	for _, n := range names {
		if results[n].OK {
			okCount++
		}
		t.Logf("%-30s %v", n, results[n])
	}
	t.Logf("validated: %d/%d designs", okCount, len(names))
}
