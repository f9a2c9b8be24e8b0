// Package sidb models dot-accurate silicon dangling bond (SiDB) layouts:
// collections of dangling bonds on the H-Si(100)-2×1 surface together with
// the Binary-dot Logic (BDL) conventions of Huff et al. [18] that the
// Bestagon library builds on.
//
// In BDL, a bit is stored in a pair of SiDBs sharing one excess electron;
// the dot that holds the electron encodes the logic state. Following the
// paper's refinement of Huff et al.'s input method, input perturbers are
// present for both logic states but placed closer (logic 1) or farther
// (logic 0) from the input pair, emulating the repulsion of an upstream
// BDL wire.
package sidb

import (
	"fmt"
	"sort"

	"repro/internal/lattice"
)

// Role classifies a dot's function within a layout.
type Role uint8

// Dot roles.
const (
	RoleNormal    Role = iota // circuit dot (wire/canvas)
	RolePerturber             // fixed peripheral perturber (always DB-)
	RoleInput                 // member of an input BDL pair
	RoleOutput                // member of an output BDL pair
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleNormal:
		return "normal"
	case RolePerturber:
		return "perturber"
	case RoleInput:
		return "input"
	case RoleOutput:
		return "output"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Dot is one dangling bond.
type Dot struct {
	Site lattice.Site
	Role Role
}

// Layout is a dot-accurate SiDB layout.
type Layout struct {
	Name string
	Dots []Dot
}

// Add appends a dot.
func (l *Layout) Add(s lattice.Site, r Role) {
	l.Dots = append(l.Dots, Dot{Site: s, Role: r})
}

// AddCell appends a dot given flattened cell coordinates.
func (l *Layout) AddCell(x, y int, r Role) {
	l.Add(lattice.FromCell(x, y), r)
}

// NumDots returns the number of dots.
func (l *Layout) NumDots() int { return len(l.Dots) }

// Sites returns all dot sites.
func (l *Layout) Sites() []lattice.Site {
	out := make([]lattice.Site, len(l.Dots))
	for i, d := range l.Dots {
		out[i] = d.Site
	}
	return out
}

// BoundingBox returns the cell-space bounding box of the layout.
func (l *Layout) BoundingBox() lattice.Box {
	b := lattice.EmptyBox()
	for _, d := range l.Dots {
		b = b.Extend(d.Site)
	}
	return b
}

// Validate checks minimum-separation design rules: no two dots may share a
// site, and dots closer than minNM violate fabrication limits (adjacent
// same-dimer dots are allowed at DimerGap for pair definitions when minNM
// permits).
func (l *Layout) Validate(minNM float64) []string {
	var out []string
	seen := map[lattice.Site]int{}
	for i, d := range l.Dots {
		if j, dup := seen[d.Site]; dup {
			out = append(out, fmt.Sprintf("dots %d and %d share site %v", j, i, d.Site))
			continue
		}
		seen[d.Site] = i
	}
	for i := 0; i < len(l.Dots); i++ {
		for j := i + 1; j < len(l.Dots); j++ {
			if d := lattice.DistanceNM(l.Dots[i].Site, l.Dots[j].Site); d > 0 && d < minNM {
				out = append(out, fmt.Sprintf("dots %d and %d only %.3f nm apart (< %.3f)", i, j, d, minNM))
			}
		}
	}
	sort.Strings(out)
	return out
}

// BDLPair is a binary-dot logic pair: Bit0 holds the electron for logic 0,
// Bit1 for logic 1.
type BDLPair struct {
	Bit0, Bit1 lattice.Site
}

// State reads the pair's logic state from a charge configuration: charged
// holds, per layout dot index, whether the dot is DB-. The index map gives
// each site's position in the layout.
func (p BDLPair) State(index map[lattice.Site]int, charged []bool) (bool, error) {
	i0, ok0 := index[p.Bit0]
	i1, ok1 := index[p.Bit1]
	if !ok0 || !ok1 {
		return false, fmt.Errorf("sidb: BDL pair dots not in layout")
	}
	c0, c1 := charged[i0], charged[i1]
	if c0 == c1 {
		return false, fmt.Errorf("sidb: BDL pair holds %d electrons; state undefined", b2i(c0)+b2i(c1))
	}
	return c1, nil
}

// b2i converts a bool to 0/1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SiteIndex builds a site -> dot index map for the layout.
func (l *Layout) SiteIndex() map[lattice.Site]int {
	m := make(map[lattice.Site]int, len(l.Dots))
	for i, d := range l.Dots {
		m[d.Site] = i
	}
	return m
}
