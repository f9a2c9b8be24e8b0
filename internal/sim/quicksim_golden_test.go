package sim_test

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sidb"
	"repro/internal/sim"
)

var updateQuickSim = flag.Bool("update-quicksim", false, "regenerate testdata/quicksim.golden")

// libraryTile is one library tile instance: a variant under one input
// pattern.
type libraryTile struct {
	name   string // "variant/pPATTERN"
	layout *sidb.Layout
}

// libraryTiles reads the library tile instances from testdata/tiles.txt,
// frozen dot lists of the layouts gatelib.ValidateWith simulates.
func libraryTiles(t *testing.T) []libraryTile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "tiles.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var tiles []libraryTile
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		tile := libraryTile{name: f[0], layout: &sidb.Layout{}}
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
// tie in energy and the answer rests on QuickSim's tie-break.
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

// quickSimGoldenLines runs QuickSim on every frozen library tile instance
// and on 60 seeded random layouts, one line per run: the case, its
// charges and the bits of its energy.
func quickSimGoldenLines(t *testing.T) []string {
	line := func(name string, e *sim.Engine) string {
		gs, en, err := e.QuickSim(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b strings.Builder
		for _, q := range gs {
			if q {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return fmt.Sprintf("%s %s %016x", name, b.String(), math.Float64bits(en))
	}
	var out []string
	for _, tile := range libraryTiles(t) {
		out = append(out, line(tile.name, sim.NewEngine(tile.layout, sim.ParamsFig5)))
	}
	for seed := int64(0); seed < 60; seed++ {
		params := sim.ParamsFig5
		if seed%2 == 1 {
			params = sim.ParamsFig1c
		}
		out = append(out, line(fmt.Sprintf("random/%d", seed), sim.NewEngine(goldenRandomLayout(seed), params)))
	}
	return out
}

// quickSimGoldenLinesAt is quickSimGoldenLines at GOMAXPROCS procs, the
// size of QuickSim's worker pool.
func quickSimGoldenLinesAt(t *testing.T, procs int) []string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return quickSimGoldenLines(t)
}

// TestQuickSimGolden pins QuickSim's answers bit for bit, charges and the
// float bits of the energy, at one pool worker. Run with -update-quicksim
// to regenerate testdata/quicksim.golden, and only for a change that is
// meant to move QuickSim's answers.
func TestQuickSimGolden(t *testing.T) {
	path := filepath.Join("testdata", "quicksim.golden")
	got := quickSimGoldenLinesAt(t, 1)
	if *updateQuickSim {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-quicksim to create it)", err)
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

// TestQuickSimWorkersAgree runs every golden case at GOMAXPROCS 1, where
// one pool worker walks every start, and at 2, where two workers split
// them: charges and energy bits must be the same.
func TestQuickSimWorkersAgree(t *testing.T) {
	one, two := quickSimGoldenLinesAt(t, 1), quickSimGoldenLinesAt(t, 2)
	if len(one) != len(two) {
		t.Fatalf("1 worker: %d runs, 2 workers: %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Errorf("run %d:\n1 worker  %s\n2 workers %s", i, one[i], two[i])
		}
	}
}

// TestQuickSimExactOnTiles: on every frozen library tile instance QuickSim
// reaches QuickExact's ground-state energy, bit for bit.
func TestQuickSimExactOnTiles(t *testing.T) {
	for _, tile := range libraryTiles(t) {
		e := sim.NewEngine(tile.layout, sim.ParamsFig5)
		_, qs, err := e.QuickSim(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, qe, _, err := e.QuickExact(sim.QuickExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if qs != qe {
			t.Errorf("%s (%d free dots): quicksim %v, quickexact %v", tile.name, len(e.FreeIndices()), qs, qe)
		}
	}
}
