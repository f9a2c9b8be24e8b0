package hexgrid

import (
	"testing"
	"testing/quick"
)

func TestOffsetCubeRoundTrip(t *testing.T) {
	f := func(x, y int8) bool {
		o := Offset{int(x), int(y)}
		return o.ToCube().ToOffset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCubeValidAfterConversion(t *testing.T) {
	f := func(x, y int8) bool {
		c := Offset{int(x), int(y)}.ToCube()
		return c.Q+c.R+c.S == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxialRoundTrip(t *testing.T) {
	f := func(q, r int8) bool {
		a := Axial{int(q), int(r)}
		return a.ToOffset().ToCube() == a.ToCube()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// cubeSteps maps Direction to the cube-coordinate unit step.
var cubeSteps = [numDirections]Cube{
	NorthWest: {0, -1, 1},
	NorthEast: {1, -1, 0},
	SouthWest: {-1, 1, 0},
	SouthEast: {0, 1, -1},
	West:      {-1, 0, 1},
	East:      {1, 0, -1},
}

func TestNeighborMatchesCubeStep(t *testing.T) {
	for _, o := range []Offset{{0, 0}, {3, 4}, {5, 5}, {-2, 7}, {0, -3}, {1, 1}} {
		for _, d := range Directions {
			got := o.Neighbor(d)
			c, s := o.ToCube(), cubeSteps[d]
			want := Cube{c.Q + s.Q, c.R + s.R, c.S + s.S}.ToOffset()
			if got != want {
				t.Errorf("Neighbor(%v, %v) = %v, cube says %v", o, d, got, want)
			}
		}
	}
}

func TestNeighborEvenRow(t *testing.T) {
	o := Offset{2, 2} // even row: NW is (x-1, y-1)
	cases := map[Direction]Offset{
		NorthWest: {1, 1}, NorthEast: {2, 1},
		SouthWest: {1, 3}, SouthEast: {2, 3},
		West: {1, 2}, East: {3, 2},
	}
	for d, want := range cases {
		if got := o.Neighbor(d); got != want {
			t.Errorf("even row %v: got %v, want %v", d, got, want)
		}
	}
}

func TestNeighborOddRow(t *testing.T) {
	o := Offset{2, 3} // odd row (shifted right): NW is (x, y-1)
	cases := map[Direction]Offset{
		NorthWest: {2, 2}, NorthEast: {3, 2},
		SouthWest: {2, 4}, SouthEast: {3, 4},
		West: {1, 3}, East: {3, 3},
	}
	for d, want := range cases {
		if got := o.Neighbor(d); got != want {
			t.Errorf("odd row %v: got %v, want %v", d, got, want)
		}
	}
}

func TestOppositeInvolution(t *testing.T) {
	for _, d := range Directions {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
	}
}

func TestNeighborOppositeRoundTrip(t *testing.T) {
	f := func(x, y int8, dRaw uint8) bool {
		o := Offset{int(x), int(y)}
		d := Directions[int(dRaw)%6]
		return o.Neighbor(d).Neighbor(d.Opposite()) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIncomingOutgoing(t *testing.T) {
	if !NorthWest.Incoming() || !NorthEast.Incoming() {
		t.Error("NW/NE must be incoming")
	}
	if !SouthWest.Outgoing() || !SouthEast.Outgoing() {
		t.Error("SW/SE must be outgoing")
	}
	for _, d := range []Direction{West, East} {
		if d.Incoming() || d.Outgoing() {
			t.Errorf("%v must be neither incoming nor outgoing", d)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Offset{int(ax), int(ay)}
		b := Offset{int(bx), int(by)}
		d := a.Distance(b)
		if d < 0 {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		return d == b.Distance(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Offset{int(ax), int(ay)}
		b := Offset{int(bx), int(by)}
		c := Offset{int(cx), int(cy)}
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAreDistanceOne(t *testing.T) {
	o := Offset{4, 7}
	for _, d := range Directions {
		if n := o.Neighbor(d); o.Distance(n) != 1 {
			t.Errorf("neighbor %v at distance %d", n, o.Distance(n))
		}
	}
}

func TestBounds(t *testing.T) {
	b := NewBounds(3, 4)
	if b.Width() != 3 || b.Height() != 4 || b.Area() != 12 {
		t.Fatalf("bounds dims wrong: %+v", b)
	}
	if !b.Contains(Offset{0, 0}) || !b.Contains(Offset{2, 3}) {
		t.Error("bounds must contain corners")
	}
	if b.Contains(Offset{3, 0}) || b.Contains(Offset{0, 4}) || b.Contains(Offset{-1, 0}) {
		t.Error("bounds must exclude outside coordinates")
	}
}

func TestDirectionString(t *testing.T) {
	names := map[Direction]string{
		NorthWest: "NW", NorthEast: "NE", SouthWest: "SW",
		SouthEast: "SE", West: "W", East: "E",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%v.String() = %q", d, d.String())
		}
	}
}
