package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/gatelib"
	"repro/internal/logic/network"
	"repro/internal/sim"
)

// hasher accumulates a canonical binary encoding into SHA-256. All
// multi-byte values are written big-endian and variable-length fields are
// length-prefixed, so distinct input sequences can never collide by
// concatenation ambiguity.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) u64(v uint64) {
	binary.BigEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) boolByte(b bool) {
	if b {
		h.h.Write([]byte{1})
	} else {
		h.h.Write([]byte{0})
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

// Key tags, one per key space. The tag separates key spaces so equal
// digests in different domains can never alias.
const (
	tagSim  = "sim"
	tagXAG  = "xag"
	tagFlow = "flow"
	tagGate = "gate"
)

// key finalizes the digest under a domain tag.
func (h *hasher) key(tag string) Key {
	return Key(tag + ":" + hex.EncodeToString(h.h.Sum(nil)))
}

// SimKey returns the content address of a ground-state simulation problem
// and the canonical dot order used to build it: order[k] is the engine dot
// index occupying canonical position k. Dots are sorted by lattice site
// (then by pinned flag), so two engines over the same physical layout hash
// identically regardless of the order dots were inserted. Charge vectors
// must be permuted through the same order when stored or restored (see
// EncodeSolution/DecodeSolution).
func SimKey(e *sim.Engine, solverName string) (Key, []int) {
	n := e.NumDots()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := e.Sites[order[a]], e.Sites[order[b]]
		if sa.N != sb.N {
			return sa.N < sb.N
		}
		if sa.M != sb.M {
			return sa.M < sb.M
		}
		if sa.L != sb.L {
			return sa.L < sb.L
		}
		return !e.IsFixed(order[a]) && e.IsFixed(order[b])
	})
	h := newHasher()
	h.f64(e.Params.MuMinus)
	h.f64(e.Params.EpsR)
	h.f64(e.Params.LambdaTF)
	h.u64(uint64(n))
	for _, i := range order {
		s := e.Sites[i]
		h.i64(int64(s.N))
		h.i64(int64(s.M))
		h.i64(int64(s.L))
		h.boolByte(e.IsFixed(i))
	}
	h.str(solverName)
	hashSurface(h, e.Surface())
	return h.key(tagSim), order
}

// hashSurface appends the defect surface's canonical serialization to the
// digest — only when non-empty, so every pristine key (and its golden
// vector) is byte-identical to the pre-defect encoding while a
// defect-bearing key can never collide with a pristine one: the pristine
// stream is a strict prefix and SHA-256 distinguishes lengths. The
// length prefix keeps distinct surfaces unambiguous.
func hashSurface(h *hasher, surf *defects.Surface) {
	if surf.Empty() {
		return
	}
	b := surf.AppendCanonical(nil)
	h.u64(uint64(len(b)))
	h.h.Write(b)
}

// hashXAGInto writes the logic content of an XAG — structure, node kinds,
// fan-in polarity, and PI/PO wiring — into the hasher. Node identifiers
// are remapped to topological positions and names are excluded, so the
// hash depends only on the Boolean function structure: the same netlist
// parsed twice (even from differently-named sources) hashes identically.
func hashXAGInto(h *hasher, x *network.XAG) {
	topo := x.TopoOrder()
	pos := make([]int, x.NumNodes())
	for p, n := range topo {
		pos[n] = p
	}
	remap := func(s network.Signal) uint64 {
		v := uint64(pos[s.Node()]) << 1
		if s.Neg() {
			v |= 1
		}
		return v
	}
	h.u64(uint64(x.NumNodes()))
	h.u64(uint64(x.NumPIs()))
	h.u64(uint64(x.NumPOs()))
	for i := 0; i < x.NumPIs(); i++ {
		h.u64(uint64(pos[x.PI(i).Node()]))
	}
	for _, n := range topo {
		kind := x.Kind(n)
		h.u64(uint64(kind))
		if kind == network.KindAnd || kind == network.KindXor {
			a, b := x.FanIns(n)
			h.u64(remap(a))
			h.u64(remap(b))
		}
	}
	for i := 0; i < x.NumPOs(); i++ {
		h.u64(remap(x.PO(i)))
	}
}

// HashXAG returns the content address of a logic network. Names (network,
// PI, PO) do not participate: only the Boolean structure does.
func HashXAG(x *network.XAG) Key {
	h := newHasher()
	hashXAGInto(h, x)
	return h.key(tagXAG)
}

// FlowKey returns the content address of a whole flow run: the
// specification network plus every option that can change the produced
// artifacts, including whether the SiQAD file and the run report were
// requested. Callers must not cache flows run with a custom rewrite
// database (its content is not addressable): such runs pass an empty key
// to Tiers.Do, which bypasses the cache.
func FlowKey(spec *network.XAG, opts core.Options, withSQD, withReport bool) Key {
	h := newHasher()
	hashXAGInto(h, spec)
	h.u64(uint64(opts.Engine))
	h.boolByte(opts.SkipRewrite)
	// Retired fields hash as the zero values every caller passed, so
	// persisted disk-cache and journal keys stay valid and the vectors
	// pinned in TestDefectKeyGolden do not move: the three rewrite knobs
	// here, the exact engine's width and height bounds after MaxArea, and
	// whole-layout cell simulation and its solver after SkipCellLevel.
	h.i64(0)
	h.i64(0)
	h.i64(0)
	h.i64(int64(opts.Exact.MaxArea))
	h.i64(0)
	h.i64(0)
	h.i64(opts.Exact.ConflictBudget)
	h.boolByte(opts.SkipCellLevel)
	h.boolByte(false)
	h.str("")
	h.boolByte(withSQD)
	h.boolByte(withReport)
	hashSurface(h, opts.Surface)
	return h.key(tagFlow)
}

// ValidationKey returns the content address of a standalone gate
// validation: the tile geometry, the expected truth table (evaluated over
// all input patterns, so the function is captured by value, not by name),
// the physical parameters, the solver choice, and the (tile-local) defect
// surface when present.
func ValidationKey(d *gatelib.Design, truth func(uint32) uint32, params sim.Params, solver string, surf *defects.Surface) Key {
	h := newHasher()
	hashPair := func(p gatelib.Pair) {
		h.i64(int64(p.X))
		h.i64(int64(p.Y))
		h.i64(int64(p.DX))
	}
	h.u64(uint64(len(d.Pairs)))
	for _, p := range d.Pairs {
		hashPair(p)
	}
	h.u64(uint64(len(d.Extra)))
	for _, s := range d.Extra {
		h.i64(int64(s.N))
		h.i64(int64(s.M))
		h.i64(int64(s.L))
	}
	h.u64(uint64(len(d.Perturbers)))
	for _, s := range d.Perturbers {
		h.i64(int64(s.N))
		h.i64(int64(s.M))
		h.i64(int64(s.L))
	}
	h.u64(uint64(len(d.Ins)))
	for _, p := range d.Ins {
		hashPair(p)
	}
	h.u64(uint64(len(d.Outs)))
	for _, p := range d.Outs {
		hashPair(p)
	}
	h.u64(uint64(len(d.OutEmu)))
	for _, s := range d.OutEmu {
		h.i64(int64(s.N))
		h.i64(int64(s.M))
		h.i64(int64(s.L))
	}
	patterns := 1 << len(d.Ins)
	for p := 0; p < patterns; p++ {
		h.u64(uint64(truth(uint32(p))))
	}
	h.f64(params.MuMinus)
	h.f64(params.EpsR)
	h.f64(params.LambdaTF)
	h.str(solver)
	hashSurface(h, surf)
	return h.key(tagGate)
}
