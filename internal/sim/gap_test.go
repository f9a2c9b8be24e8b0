package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sidb"
)

// twoPassGap is the enumerated degeneracy gap: one Gray-code walk finds
// the ground state, a second walk the lowest energy whose interest key
// differs from the ground state's. It is the reference the pinned-search
// gap must reproduce within energyTol and Exhaustive's ground state bit
// for bit.
func twoPassGap(e *Engine, interest []int) (gap float64, ground []bool, groundE float64) {
	freeIdx := e.FreeIndices()
	key := func(c []bool) uint64 {
		var k uint64
		for bit, i := range interest {
			if c[i] {
				k |= 1 << bit
			}
		}
		return k
	}
	walk := func(visit func(cur []bool, curE float64)) {
		cur := append([]bool(nil), e.fixed...)
		curE := e.Energy(cur)
		visit(cur, curE)
		prevGray := uint64(0)
		for k := uint64(1); k < uint64(1)<<len(freeIdx); k++ {
			gray := k ^ (k >> 1)
			diff := gray ^ prevGray
			prevGray = gray
			bit := 0
			for diff>>1 != 0 {
				diff >>= 1
				bit++
			}
			i := freeIdx[bit]
			curE += e.flipDelta(cur, i)
			cur[i] = !cur[i]
			visit(cur, curE)
		}
	}
	walk(func(cur []bool, curE float64) {
		if ground == nil || curE < groundE-1e-15 {
			ground = append(ground[:0], cur...)
			groundE = curE
		}
	})
	groundKey := key(ground)
	other := math.Inf(1)
	walk(func(cur []bool, curE float64) {
		if key(cur) != groundKey && curE < other {
			other = curE
		}
	})
	return other - groundE, ground, groundE
}

// energyTol bounds the float-rounding difference between the gap's
// canonically summed energies and the walk's accumulated ones.
const energyTol = 1e-9

func TestDegeneracyGapMatchesTwoPass(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		free := 1 + rng.Intn(14)
		perturbers := rng.Intn(3)
		// Every third layout is mirror-symmetric about x = 0, so mirrored
		// configurations tie in energy and the tie rules decide the result.
		mirror := seed%3 == 2
		if mirror {
			free, perturbers = 2*(1+rng.Intn(7)), 2*rng.Intn(2)
		}
		l := &sidb.Layout{}
		seen := map[[2]int]bool{}
		add := func(x, y int, role sidb.Role) bool {
			if seen[[2]int{x, y}] || (mirror && seen[[2]int{-x, y}]) {
				return false
			}
			seen[[2]int{x, y}] = true
			l.AddCell(x, y, role)
			if mirror {
				seen[[2]int{-x, y}] = true
				l.AddCell(-x, y, role)
			}
			return true
		}
		step := 1
		if mirror {
			step = 2
		}
		for i := 0; i < free+perturbers; i += step {
			role := sidb.RoleNormal
			if i < perturbers {
				role = sidb.RolePerturber
			}
			for {
				x, y := rng.Intn(24), rng.Intn(24)
				if mirror {
					x = 1 + rng.Intn(12)
				}
				if add(x, y, role) {
					break
				}
			}
		}
		params := ParamsFig5
		if seed%2 == 1 {
			params = ParamsFig1c
		}
		e := NewEngine(l, params)
		interest := make([]int, 1+rng.Intn(4))
		for b := range interest {
			interest[b] = rng.Intn(len(l.Dots))
		}
		got, gotGround, err := e.DegeneracyGap(context.Background(), interest, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, ground, groundE := twoPassGap(e, interest)
		// Equal infinities (no configuration reads differently) pass too.
		if got != want && !(math.Abs(got-want) <= energyTol) {
			t.Errorf("seed %d (%d free, interest %v): gap %v, two-pass %v", seed, free, interest, got, want)
		}
		// The returned configuration is a ground state, and outside a tie
		// it reads the ground state's key.
		if en := e.Energy(gotGround); math.Abs(en-groundE) > energyTol {
			t.Errorf("seed %d: gap's ground configuration at %v eV, ground state %v eV", seed, en, groundE)
		}
		if want > energyTol {
			for _, i := range interest {
				if gotGround[i] != ground[i] {
					t.Errorf("seed %d: gap's ground configuration reads dot %d as %v, ground state %v",
						seed, i, gotGround[i], ground[i])
				}
			}
		}
		gs, en, err := e.Exhaustive(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Float64bits(en) != math.Float64bits(groundE) || !slices.Equal(gs, ground) {
			t.Errorf("seed %d: Exhaustive (%v, %v) != two-pass ground state (%v, %v)", seed, gs, en, ground, groundE)
		}
	}
}

// TestDegeneracyGapCanceled: a gap under an already-cancelled context
// starts no search and returns an error wrapping context.Canceled.
func TestDegeneracyGapCanceled(t *testing.T) {
	e := NewEngine(benchLayout(18, 7, 40), ParamsFig5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.DegeneracyGap(ctx, []int{0, 1, 2, 3}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("gap under a cancelled context: err %v, want context.Canceled", err)
	}
}
