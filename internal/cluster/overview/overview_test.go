package overview

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/obs/slo"
)

// replica builds one replica's stats with the given objective windows.
func replica(addr string, objectives map[string]slo.Status) Replica {
	return Replica{Addr: addr, Alive: true, Stats: &Stats{Addr: addr, SLO: objectives}}
}

// TestFleetBurn pins the fleet burn rule: raw good and bad counts are
// summed per (objective, window) and only then divided by the budget —
// never averaged as per-replica rates; a replica without stats adds
// nothing; the output is sorted by objective, then by window.
func TestFleetBurn(t *testing.T) {
	const budget = 0.01
	reps := []Replica{
		replica("a", map[string]slo.Status{
			"flow": {Budget: budget, Windows: []slo.WindowBurn{
				{Window: "5m", Total: 10, Bad: 1, BurnRate: 10},
				{Window: "1h", Total: 10, Bad: 1},
			}},
			"cheap": {Budget: budget, Windows: []slo.WindowBurn{{Window: "5m", Total: 4}}},
		}),
		replica("b", map[string]slo.Status{
			"flow": {Budget: budget, Windows: []slo.WindowBurn{
				{Window: "5m", Total: 90, Bad: 0},
				{Window: "1h", Total: 90, Bad: 9},
			}},
		}),
		// Dead or unreachable: no stats, so no counts and no budget.
		{Addr: "c", Alive: false},
		{Addr: "d", Alive: true, Error: "status 503"},
	}
	got := fleetBurn(reps)

	want := []FleetBurn{
		{SLO: "cheap", Window: "5m", Total: 4, Bad: 0, BurnRate: 0},
		{SLO: "flow", Window: "1h", Total: 100, Bad: 10, BurnRate: (10.0 / 100) / budget},
		// 1/10 and 0/90 bad: (1/100)/budget = 1, where averaging the
		// replicas' rates (10 and 0) would read 5.
		{SLO: "flow", Window: "5m", Total: 100, Bad: 1, BurnRate: (1.0 / 100) / budget},
	}
	if len(got) != len(want) {
		t.Fatalf("fleetBurn = %+v; want %+v", got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SLO != w.SLO || g.Window != w.Window || g.Total != w.Total || g.Bad != w.Bad ||
			math.Abs(g.BurnRate-w.BurnRate) > 1e-12 {
			t.Errorf("burn %d = %+v; want %+v", i, g, w)
		}
	}
	if r := got[2].BurnRate; math.Abs(r-1) > 1e-12 {
		t.Errorf("flow/5m burn = %v; want 1 (summed counts, not averaged rates)", r)
	}

	// Adding replicas that carry no stats changes nothing.
	if again := fleetBurn(append(reps, Replica{Addr: "e"})); !reflect.DeepEqual(again, got) {
		t.Errorf("a statless replica changed the burn: %+v; want %+v", again, got)
	}
	if none := fleetBurn([]Replica{{Addr: "c"}}); len(none) != 0 {
		t.Errorf("no stats: %+v; want no burns", none)
	}
}
