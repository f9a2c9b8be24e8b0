package cache

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sim"
)

// EncodeSolution serializes a ground-state solution as a cache entry, with
// its charge vector permuted into the canonical site order SimKey returns
// (canonical bit k = Charges[order[k]]). Layouts built with different dot
// insertion orders therefore share entries, and DecodeSolution hands each
// of them correctly-indexed charges. The Degraded marker is not stored:
// degraded solutions are never cached.
func EncodeSolution(sol sim.Solution, order []int) []byte {
	n := len(sol.Charges)
	b := make([]byte, 0, 8+1+2+len(sol.Solver)+4+(n+7)/8)
	var f [8]byte
	binary.BigEndian.PutUint64(f[:], math.Float64bits(sol.EnergyEV))
	b = append(b, f[:]...)
	if sol.Exact {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, byte(len(sol.Solver)>>8), byte(len(sol.Solver)))
	b = append(b, sol.Solver...)
	var nb [4]byte
	binary.BigEndian.PutUint32(nb[:], uint32(n))
	b = append(b, nb[:]...)
	bits := make([]byte, (n+7)/8)
	for k := 0; k < n; k++ {
		if sol.Charges[order[k]] {
			bits[k/8] |= 1 << (k % 8)
		}
	}
	return append(b, bits...)
}

// DecodeSolution is the inverse of EncodeSolution: canonical bit k is
// written back to Charges[order[k]].
func DecodeSolution(b []byte, order []int) (sim.Solution, error) {
	var sol sim.Solution
	if len(b) < 8+1+2 {
		return sol, fmt.Errorf("cache: short solution entry")
	}
	sol.EnergyEV = math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
	sol.Exact = b[8] == 1
	b = b[9:]
	sl := int(b[0])<<8 | int(b[1])
	b = b[2:]
	if len(b) < sl+4 {
		return sol, fmt.Errorf("cache: short solution entry")
	}
	sol.Solver = string(b[:sl])
	b = b[sl:]
	n := int(binary.BigEndian.Uint32(b[:4]))
	b = b[4:]
	if n != len(order) || len(b) < (n+7)/8 {
		return sol, fmt.Errorf("cache: solution entry size mismatch")
	}
	sol.Charges = make([]bool, n)
	for k := 0; k < n; k++ {
		sol.Charges[order[k]] = b[k/8]&(1<<(k%8)) != 0
	}
	return sol, nil
}
