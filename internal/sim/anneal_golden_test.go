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

	"repro/internal/obs"
	"repro/internal/sidb"
	"repro/internal/sim"
)

var updateAnneal = flag.Bool("update-anneal", false, "regenerate testdata/anneal.golden")

// goldenConfigs are the annealer settings the golden pins: the default
// schedule (8 restarts, above the parallel threshold on every tile), a
// short 2×150-sweep schedule (always below it; QuickExact seeded its
// incumbent with it before its searches started from an infinite one, and
// it stays as an annealer case) and a 5-restart schedule with an odd
// restart count.
var goldenConfigs = []struct {
	name string
	cfg  sim.AnnealConfig
}{
	{"default", sim.DefaultAnnealConfig()},
	{"seed", sim.AnnealConfig{Seed: 1, Restarts: 2, Sweeps: 150, TStart: 0.3, TEnd: 0.001}},
	{"r5", sim.AnnealConfig{Seed: 5, Restarts: 5, Sweeps: 400, TStart: 0.2, TEnd: 0.002}},
}

// annealTile is one library tile instance of the golden: a variant under
// one input pattern.
type annealTile struct {
	name   string // "variant/pPATTERN"
	layout *sidb.Layout
}

// annealTiles reads the golden's library tile instances from
// testdata/anneal_tiles.txt, frozen dot lists of the layouts
// gatelib.ValidateWith simulates.
func annealTiles(t *testing.T) []annealTile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "anneal_tiles.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var tiles []annealTile
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		tile := annealTile{name: f[0], layout: &sidb.Layout{}}
		for _, dot := range f[1:] {
			cell, perturber := strings.CutSuffix(dot, "p")
			var x, y int
			if _, err := fmt.Sscanf(cell, "%d,%d", &x, &y); err != nil {
				t.Fatalf("%s: dot %q: %v", f[0], dot, err)
			}
			role := sidb.RoleNormal
			if perturber {
				role = sidb.RolePerturber
			}
			tile.layout.AddCell(x, y, role)
		}
		tiles = append(tiles, tile)
	}
	return tiles
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

// annealGoldenLines anneals every library tile instance and 60 seeded
// random layouts under every golden config, one line per run: the case,
// its charges and the bits of its energy.
func annealGoldenLines(t *testing.T) []string {
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
	for _, tile := range annealTiles(t) {
		e := sim.NewEngine(tile.layout, sim.ParamsFig5)
		for _, g := range goldenConfigs {
			out = append(out, line(tile.name, g.name, e, g.cfg))
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
	got := annealGoldenLines(t)
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
	const key = "crossing:iNW:iNE:oSW:oSE/p1"
	tiles := annealTiles(t)
	i := slices.IndexFunc(tiles, func(tile annealTile) bool { return tile.name == key })
	if i < 0 {
		t.Fatal(key + " missing from testdata/anneal_tiles.txt")
	}
	e := sim.NewEngine(tiles[i].layout, sim.ParamsFig5)
	if free := len(e.FreeIndices()); free != 24 {
		t.Fatalf("%s has %d free dots, want 24", key, free)
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
