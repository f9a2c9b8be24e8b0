package gatelib

import (
	"testing"

	"repro/internal/sidb"
	"repro/internal/sim"
)

// chainOutputs validates a BDL chain standalone: input emulation at the
// head, output perturber at the tail, ground state per logic value; it
// returns whether both logic values propagate to the last pair.
func chainOK(t *testing.T, steps [][2]int) bool {
	t.Helper()
	ps := chainSteps(15, 0, steps)
	d := &Design{Name: "chain", Pairs: ps}
	d.Ins = []Pair{ps[0]}
	d.Outs = []Pair{ps[len(ps)-1]}
	v, err := ValidateWith(d, func(i uint32) uint32 { return i }, sim.ParamsFig5, ValidateOptions{})
	return err == nil && v.OK
}

// TestValidatedPitchFamily pins the wire design rule discovered by the
// geometry search: uniform chains with inter-pair pitches from the
// validated family propagate both logic states.
func TestValidatedPitchFamily(t *testing.T) {
	for _, p := range [][2]int{{4, 6}, {4, 7}, {5, 6}} {
		if !chainOK(t, repeatStep(p[0], p[1], 6)) {
			t.Errorf("uniform pitch %v failed to propagate", p)
		}
	}
}

// TestStandardRayPropagates pins the tile-crossing ray used by every stub.
func TestStandardRayPropagates(t *testing.T) {
	ray := [][2]int{{4, 7}, {5, 6}, {4, 7}, {4, 6}, {4, 7}, {5, 6}}
	if !chainOK(t, ray) {
		t.Fatal("standard ray does not propagate")
	}
	// Two-tile continuation across the border step (4,7).
	long := append(append([][2]int{}, ray...), [2]int{4, 7}, [2]int{4, 7}, [2]int{5, 6})
	if !chainOK(t, long) {
		t.Fatal("ray does not continue across the tile border")
	}
}

// TestShortPitchCreatesWalls pins the failure mode that motivated the
// pitch family rule: pitches shorter than (4,6) are cheap domain-wall
// sites and must not be used in chains.
func TestShortPitchCreatesWalls(t *testing.T) {
	bad := [][2]int{{4, 6}, {4, 6}, {2, 6}, {4, 4}, {4, 6}, {4, 6}, {4, 6}}
	if chainOK(t, bad) {
		t.Error("short-pitch shims unexpectedly propagate; design rule may be stale")
	}
}

// TestIsolatedPairHoldsOneElectronInChain confirms the emergent BDL
// behavior: within a chain each pair holds exactly one electron even
// though an isolated 0.86 nm pair would doubly charge.
func TestIsolatedPairHoldsOneElectronInChain(t *testing.T) {
	ps := chainSteps(15, 0, repeatStep(4, 6, 5))
	d := &Design{Name: "chain", Pairs: ps}
	d.Ins = []Pair{ps[0]}
	d.Outs = []Pair{ps[len(ps)-1]}
	l := d.Layout(0, 0)
	for _, s := range InputEmulation(d.Ins[0], true) {
		l.Add(s, sidb.RolePerturber)
	}
	l.Add(OutputPerturber(d.Outs[0]), sidb.RolePerturber)
	eng := sim.NewEngine(l, sim.ParamsFig5)
	gs, _ := exhaustive(t, eng)
	for k := 0; k < len(ps); k++ {
		b0, b1 := gs[2*k], gs[2*k+1]
		if b0 == b1 {
			t.Fatalf("pair %d holds %v electrons", k, b0)
		}
	}
	if !eng.PopulationStable(gs) {
		t.Error("chain ground state not population stable")
	}
}
