package sim_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/sidb"
	"repro/internal/sim"
)

var updateAnneal = flag.Bool("update-anneal", false, "regenerate testdata/anneal.golden")

// goldenConfigs are the annealer settings the golden pins: the default
// schedule (8 restarts, above the parallel threshold on every tile),
// QuickExact's incumbent seed (2×150 sweeps, always below it) and a
// 5-restart schedule with an odd restart count.
var goldenConfigs = []struct {
	name string
	cfg  sim.AnnealConfig
}{
	{"default", sim.DefaultAnnealConfig()},
	{"seed", sim.AnnealConfig{Seed: 1, Restarts: 2, Sweeps: 150, TStart: 0.3, TEnd: 0.001}},
	{"r5", sim.AnnealConfig{Seed: 5, Restarts: 5, Sweeps: 400, TStart: 0.2, TEnd: 0.002}},
}

// tilePatternLayout is the standalone layout gatelib.ValidateWith
// simulates for input pattern p: the tile, the emulation perturbers of
// every input and one read-out perturber per output.
func tilePatternLayout(d *gatelib.Design, p int) *sidb.Layout {
	l := d.Layout(0, 0)
	for i, in := range d.Ins {
		for _, site := range gatelib.InputEmulation(in, p>>i&1 == 1) {
			l.Add(site, sidb.RolePerturber)
		}
	}
	have := l.SiteIndex()
	for j, out := range d.Outs {
		site := gatelib.OutputPerturber(out)
		if j < len(d.OutEmu) {
			site = d.OutEmu[j]
		}
		if _, dup := have[site]; dup {
			continue
		}
		l.Add(site, sidb.RolePerturber)
	}
	if len(d.OutEmu) > len(d.Outs) {
		for _, site := range d.OutEmu[len(d.Outs):] {
			l.Add(site, sidb.RolePerturber)
		}
	}
	return l
}

// goldenRandomLayout is seeded random layout number seed: 2 to 34 dots,
// every fifth a perturber, on a span that keeps the density tile-like.
// Even seeds are mirror-symmetric about x = 0, so mirrored configurations
// tie in energy and the walk meets near-tied minima (one energy reached
// along different flip orders), which the best-state rule must break as
// the serial loop does.
func goldenRandomLayout(seed int64) *sidb.Layout {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(32)
	span := 8 + 2*n
	mirror := seed%2 == 0
	l := &sidb.Layout{}
	seen := map[[2]int]bool{}
	for i := 0; len(l.Dots) < n; i++ {
		role := sidb.RoleNormal
		if i%5 == 4 {
			role = sidb.RolePerturber
		}
		x, y := rng.Intn(span), rng.Intn(span)
		if mirror {
			x = 1 + rng.Intn(span/2)
		}
		if seen[[2]int{x, y}] {
			continue
		}
		seen[[2]int{x, y}] = true
		l.AddCell(x, y, role)
		if mirror {
			l.AddCell(-x, y, role)
		}
	}
	return l
}

// annealGoldenLines anneals every library variant under every input
// pattern and 60 seeded random layouts under every golden config, one
// line per run: the case, its charges and the bits of its energy.
func annealGoldenLines() []string {
	line := func(name, cfg string, e *sim.Engine, c sim.AnnealConfig) string {
		gs, en := e.Anneal(c)
		var b strings.Builder
		for _, q := range gs {
			if q {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return fmt.Sprintf("%s %s %s %016x", name, cfg, b.String(), math.Float64bits(en))
	}
	var out []string
	lib := gatelib.NewLibrary()
	keys := lib.Variants()
	slices.Sort(keys)
	for _, key := range keys {
		d, _, _ := lib.Design(key)
		for p := 0; p < 1<<len(d.Ins); p++ {
			e := sim.NewEngine(tilePatternLayout(d, p), sim.ParamsFig5)
			for _, g := range goldenConfigs {
				out = append(out, line(fmt.Sprintf("%s/p%d", key, p), g.name, e, g.cfg))
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		params := sim.ParamsFig5
		if seed%2 == 1 {
			params = sim.ParamsFig1c
		}
		e := sim.NewEngine(goldenRandomLayout(seed), params)
		for _, g := range goldenConfigs {
			out = append(out, line(fmt.Sprintf("random/%d", seed), g.name, e, g.cfg))
		}
	}
	return out
}

// TestAnnealGolden pins the annealer's answers bit for bit: charges and
// the float bits of the energy of every run in annealGoldenLines. Run
// with -update-anneal to regenerate testdata/anneal.golden, and only for
// a change that is meant to move the annealer's answers.
func TestAnnealGolden(t *testing.T) {
	path := filepath.Join("testdata", "anneal.golden")
	got := annealGoldenLines()
	if *updateAnneal {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-anneal to create it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestAnnealWorkersAgree anneals the crossing tile's pattern 1 (24 free
// dots) at GOMAXPROCS 1, where one pool worker runs every restart, and at
// 2, where two workers split them: charges, energy bits and move counts
// must be the same.
func TestAnnealWorkersAgree(t *testing.T) {
	const key = "crossing:iNW:iNE:oSW:oSE"
	d, _, ok := gatelib.NewLibrary().Design(key)
	if !ok {
		t.Fatal(key + " missing from the library")
	}
	e := sim.NewEngine(tilePatternLayout(d, 1), sim.ParamsFig5)
	if free := len(e.FreeIndices()); free != 24 {
		t.Fatalf("%s pattern 1 has %d free dots, want 24", key, free)
	}
	type result struct {
		charges         []bool
		bits            uint64
		tried, accepted int64
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr := obs.New()
		cfg := sim.DefaultAnnealConfig()
		cfg.Tracer = tr
		gs, en := e.Anneal(cfg)
		return result{gs, math.Float64bits(en),
			tr.Counter("sim/anneal/flips_tried").Value(), tr.Counter("sim/anneal/accepted").Value()}
	}
	one, two := run(1), run(2)
	if !slices.Equal(one.charges, two.charges) || one.bits != two.bits {
		t.Errorf("1 worker: %v %016x; 2 workers: %v %016x", one.charges, one.bits, two.charges, two.bits)
	}
	if one.tried != two.tried || one.accepted != two.accepted {
		t.Errorf("move counts: 1 worker %d/%d, 2 workers %d/%d", one.accepted, one.tried, two.accepted, two.tried)
	}
}
