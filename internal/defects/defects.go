// Package defects models atomic defects of the H-Si(100)-2×1 surface and
// their interaction with SiDB logic, after the defect-aware physical
// design study of Walter et al. (arXiv 2311.12042). Real fabricated
// surfaces are not pristine: charged defects (stray dangling bonds,
// arsenic dopants, charged missing-dimer vacancies) perturb the
// electrostatic landscape of nearby gates, while neutral structural
// defects (siloxane reconstructions, dihydride pairs, etched dimers)
// simply make their lattice sites unusable for fabrication.
//
// The package is a leaf: it depends only on internal/lattice, so every
// other layer (sim, gatelib, pnr, core, cache, service) can import it.
package defects

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/lattice"
)

// ErrBlocked is the sentinel wrapped by every error caused by surface
// defects making a placement or layout infeasible. Callers classify with
// errors.Is(err, ErrBlocked); the service maps it to error kind
// "defect_blocked".
var ErrBlocked = errors.New("blocked by surface defect")

// Type enumerates the defect species of arXiv 2311.12042.
type Type uint8

const (
	// DB is a stray negatively charged dangling bond left by imperfect
	// hydrogen passivation.
	DB Type = iota
	// Arsenic is a positively charged arsenic dopant near the surface.
	Arsenic
	// Vacancy is a missing-dimer vacancy variant carrying net negative
	// charge.
	Vacancy
	// Siloxane is a neutral siloxane (Si-O-Si) reconstruction of a dimer.
	Siloxane
	// DihydridePair is a neutral dihydride pair (two H per Si atom).
	DihydridePair
	// SingleDihydride is a neutral single dihydride defect.
	SingleDihydride
	// EtchedDimer is a neutral missing (etched) dimer.
	EtchedDimer

	numTypes
)

// Spec describes the physical behaviour of a defect type.
type Spec struct {
	// Name is the canonical lowercase identifier used in JSON and flags.
	Name string
	// Charge is the defect's net charge in units of the elementary charge
	// e. Zero marks a neutral, purely structural defect.
	Charge int
	// ExclusionNM is the hard fabrication/operation exclusion radius: no
	// SiDB can exist within this distance of the defect. Validation
	// fast-rejects any design with a dot inside an exclusion zone before
	// running any simulation.
	ExclusionNM float64
	// InfluenceNM is the electrostatic influence radius used by place &
	// route to decide whether a tile is afflicted. For charged defects it
	// is several nm (the screened Coulomb tail measurably shifts nearby
	// gates); for neutral defects it equals the exclusion radius.
	InfluenceNM float64
}

// specs is indexed by Type. Radii are calibration choices informed by
// arXiv 2311.12042: charged defects perturb gates over several nm, while
// neutral defects only poison their immediate dimer neighbourhood.
var specs = [numTypes]Spec{
	DB:              {Name: "db", Charge: -1, ExclusionNM: 0.9, InfluenceNM: 6.0},
	Arsenic:         {Name: "arsenic", Charge: +1, ExclusionNM: 0.9, InfluenceNM: 6.0},
	Vacancy:         {Name: "vacancy", Charge: -1, ExclusionNM: 1.2, InfluenceNM: 6.0},
	Siloxane:        {Name: "siloxane", Charge: 0, ExclusionNM: 0.8, InfluenceNM: 0.8},
	DihydridePair:   {Name: "dihydride_pair", Charge: 0, ExclusionNM: 0.8, InfluenceNM: 0.8},
	SingleDihydride: {Name: "single_dihydride", Charge: 0, ExclusionNM: 0.4, InfluenceNM: 0.4},
	EtchedDimer:     {Name: "etched_dimer", Charge: 0, ExclusionNM: 1.2, InfluenceNM: 1.2},
}

// Spec returns the type's physical description.
func (t Type) Spec() Spec {
	if t >= numTypes {
		return Spec{Name: fmt.Sprintf("invalid(%d)", uint8(t))}
	}
	return specs[t]
}

// String returns the canonical name.
func (t Type) String() string { return t.Spec().Name }

// Charge returns the net charge in units of e.
func (t Type) Charge() int { return t.Spec().Charge }

// Charged reports whether the defect perturbs the electrostatics.
func (t Type) Charged() bool { return t.Spec().Charge != 0 }

// Types lists every defect type in canonical order.
func Types() []Type {
	out := make([]Type, numTypes)
	for i := range out {
		out[i] = Type(i)
	}
	return out
}

// ParseType resolves a canonical name to a Type.
func ParseType(name string) (Type, error) {
	for i, s := range specs {
		if s.Name == name {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("defects: unknown defect type %q", name)
}

// Defect is one surface defect: a lattice site plus a species.
type Defect struct {
	Site lattice.Site
	Type Type
}

// Surface is a set of defects on the H-Si surface, keyed by lattice site
// (at most one defect per site). The zero value and the nil pointer are
// both valid, empty (pristine) surfaces.
type Surface struct {
	m map[lattice.Site]Type
}

// New returns an empty surface.
func New() *Surface { return &Surface{m: map[lattice.Site]Type{}} }

// Add places a defect of type t at the site. Adding a second defect to an
// occupied site replaces the previous one only if the new type orders
// first canonically, keeping Add order-independent.
func (s *Surface) Add(site lattice.Site, t Type) {
	if s.m == nil {
		s.m = map[lattice.Site]Type{}
	}
	if prev, ok := s.m[site]; ok && prev <= t {
		return
	}
	s.m[site] = t
}

// AddCell places a defect at flattened cell coordinates (x, y).
func (s *Surface) AddCell(x, y int, t Type) { s.Add(lattice.FromCell(x, y), t) }

// Len returns the number of defects.
func (s *Surface) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Empty reports whether the surface is pristine.
func (s *Surface) Empty() bool { return s.Len() == 0 }

// List returns the defects in canonical order: sorted by site (N, M, L).
func (s *Surface) List() []Defect {
	if s.Len() == 0 {
		return nil
	}
	out := make([]Defect, 0, len(s.m))
	for site, t := range s.m {
		out = append(out, Defect{Site: site, Type: t})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Site, out[j].Site
		if a.N != b.N {
			return a.N < b.N
		}
		if a.M != b.M {
			return a.M < b.M
		}
		return a.L < b.L
	})
	return out
}

// Charged returns the charged defects in canonical order.
func (s *Surface) Charged() []Defect {
	var out []Defect
	for _, d := range s.List() {
		if d.Type.Charged() {
			out = append(out, d)
		}
	}
	return out
}

// Blocks reports whether fabricating a dot at the site would fall inside
// some defect's exclusion zone, returning the offending defect.
func (s *Surface) Blocks(site lattice.Site) (Defect, bool) {
	if s.Len() == 0 {
		return Defect{}, false
	}
	for dsite, t := range s.m {
		if lattice.DistanceNM(site, dsite) <= t.Spec().ExclusionNM {
			return Defect{Site: dsite, Type: t}, true
		}
	}
	return Defect{}, false
}

// InfluencesBox reports whether any defect's influence circle intersects
// the cell-coordinate box (inclusive bounds), the geometric test behind
// tile blocking in place & route.
func (s *Surface) InfluencesBox(b lattice.Box) bool {
	if s.Len() == 0 || b.Empty() {
		return false
	}
	// Box corners in nm. Sub-row pitch is PitchY/2; using site positions
	// directly keeps the dimer-gap asymmetry exact.
	x0, y0 := lattice.FromCell(b.MinX, b.MinY).Pos()
	x1, y1 := lattice.FromCell(b.MaxX, b.MaxY).Pos()
	for site, t := range s.m {
		px, py := site.Pos()
		// Distance from the point to the rectangle.
		dx := math.Max(math.Max(x0-px, 0), px-x1)
		dy := math.Max(math.Max(y0-py, 0), py-y1)
		if math.Hypot(dx, dy) <= t.Spec().InfluenceNM {
			return true
		}
	}
	return false
}

// AppendCanonical appends the surface's canonical byte serialization:
// defect count then (n, m, l, type) per defect in canonical order, all
// fields big-endian fixed width. Identical surfaces serialize
// identically regardless of insertion order or process; this is the
// representation hashed into cache keys.
func (s *Surface) AppendCanonical(b []byte) []byte {
	list := s.List()
	b = binary.BigEndian.AppendUint64(b, uint64(len(list)))
	for _, d := range list {
		b = binary.BigEndian.AppendUint64(b, uint64(int64(d.Site.N)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(d.Site.M)))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(d.Site.L)))
		b = append(b, byte(d.Type))
	}
	return b
}

// jsonDefect is the wire form of one defect, in flattened cell
// coordinates (the coordinate system of the gate library and service).
type jsonDefect struct {
	X    int    `json:"x"`
	Y    int    `json:"y"`
	Type string `json:"type"`
}

// MarshalJSON encodes the surface as a canonically ordered list of
// {x, y, type} objects.
func (s *Surface) MarshalJSON() ([]byte, error) {
	list := s.List()
	out := make([]jsonDefect, len(list))
	for i, d := range list {
		x, y := d.Site.Cell()
		out[i] = jsonDefect{X: x, Y: y, Type: d.Type.String()}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a list of {x, y, type} objects in any order.
func (s *Surface) UnmarshalJSON(data []byte) error {
	var list []jsonDefect
	if err := json.Unmarshal(data, &list); err != nil {
		return err
	}
	*s = Surface{m: map[lattice.Site]Type{}}
	for _, jd := range list {
		t, err := ParseType(jd.Type)
		if err != nil {
			return err
		}
		s.AddCell(jd.X, jd.Y, t)
	}
	return nil
}

// Densities parameterizes random surface generation: expected defects of
// each type per 100 nm² of surface.
type Densities map[Type]float64

// ParseDensities converts a name→density map (e.g. from JSON) into
// Densities, rejecting unknown type names and negative densities.
func ParseDensities(byName map[string]float64) (Densities, error) {
	d := Densities{}
	for name, v := range byName {
		t, err := ParseType(name)
		if err != nil {
			return nil, err
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("defects: invalid density %v for %q", v, name)
		}
		if v > 0 {
			d[t] = v
		}
	}
	return d, nil
}

// Generate builds a random surface over the region (cell coordinates,
// inclusive) with the given per-type densities. Deterministic: the same
// (seed, region, densities) always yields the same surface, regardless
// of map iteration order.
func Generate(seed int64, region lattice.Box, d Densities) *Surface {
	s := New()
	if region.Empty() {
		return s
	}
	// Region area in nm²: count cells, not extents, so single-row regions
	// still have area. Each cell owns PitchX × PitchY/2 of surface.
	cellsX := region.MaxX - region.MinX + 1
	cellsY := region.MaxY - region.MinY + 1
	area := float64(cellsX) * lattice.PitchX * float64(cellsY) * (lattice.PitchY / 2)
	for _, t := range Types() {
		density := d[t]
		if density <= 0 {
			continue
		}
		want := int(math.Round(density * area / 100))
		if want <= 0 {
			continue
		}
		// Independent stream per type so adding a type's density never
		// reshuffles another type's placements.
		rng := rand.New(rand.NewSource(seed ^ (int64(t)+1)*0x1E3779B97F4A7C15))
		placed := 0
		for attempt := 0; placed < want && attempt < want*64; attempt++ {
			x := region.MinX + rng.Intn(cellsX)
			y := region.MinY + rng.Intn(cellsY)
			site := lattice.FromCell(x, y)
			if _, occupied := s.m[site]; occupied {
				continue
			}
			s.m[site] = t
			placed++
		}
	}
	return s
}
