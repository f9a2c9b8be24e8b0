package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/logic/bench"
	"repro/internal/logic/network"
	"repro/internal/sidb"
	"repro/internal/sim"
)

// Random streams derived from the workload seed. The seed fixes request
// order and generated inputs; the program only ever sees the inputs.
const (
	streamOrder = 1
	streamFresh = 2
	streamPlan  = 3
)

// flowPoolSeed replaces the workload seed for the fresh flow netlists, so
// every seed and every commit solves the same netlists and the seed only
// orders them. A flow's cost is heavy-tailed in its netlist: over 150
// in-process draws per gate count, 3-gate netlists took at most 29 ms,
// 8-gate ones 88 ms on average and up to 1.5 s. With netlists drawn per
// seed, a few heavy draws decided a run's fresh work: an earlier version
// that did so spread by 22% in serve-durable throughput over ten seeds.
const flowPoolSeed = 0

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// permuted returns a seeded permutation of keys.
func permuted(keys []string, rng *rand.Rand) []string {
	out := make([]string, len(keys))
	for i, j := range rng.Perm(len(keys)) {
		out[i] = keys[j]
	}
	return out
}

// freshReq is a request for a key no earlier request of the run used.
type freshReq struct {
	Kind   string // "simulate" or "flow"
	Path   string
	Body   []byte
	Dots   [][2]int // simulate: cell coordinates
	Source string   // flow: .bench netlist
}

// freshGen draws never-repeating requests: simulations of random 6–12
// dot layouts and flows of random 3–4 input, 3–8 gate netlists. Keys are
// deduplicated by the service's own canonical cache keys, so every
// request is a guaranteed miss.
type freshGen struct {
	rng  *rand.Rand
	seen map[cache.Key]bool
}

func newFreshGen(seed int64) *freshGen {
	return &freshGen{rng: newRand(seed, streamFresh), seen: map[cache.Key]bool{}}
}

// take draws the next n requests of a kind.
func (g *freshGen) take(kind string, n int) []freshReq {
	out := make([]freshReq, n)
	for i := range out {
		out[i] = g.next(kind)
	}
	return out
}

func (g *freshGen) next(kind string) freshReq {
	for {
		var r freshReq
		var key cache.Key
		if kind == "simulate" {
			r.Dots = randomDots(g.rng)
			key, _ = cache.SimKey(sim.NewEngine(dotLayout(r.Dots), sim.ParamsFig5), "auto")
		} else {
			r.Source = randomNetlist(g.rng)
			spec, err := bench.ParseBench("inline", r.Source)
			if err != nil || !usableNetlist(spec) {
				continue
			}
			key = cache.FlowKey(spec, core.Options{}, false, false)
		}
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		r.Kind = kind
		r.Path, r.Body = freshBody(r)
		return r
	}
}

// request is one planned serve request: a prewarmed key or a fresh one.
type request struct {
	warm  *warmKey
	fresh *freshReq
}

func (q request) target() (path string, body []byte) {
	if q.fresh != nil {
		return q.fresh.Path, q.fresh.Body
	}
	return q.warm.Path, q.warm.Body
}

// planRequests lays out n requests: round(n·share) fresh keys, half of
// them flows from flows and the rest simulations from sims, and uniform
// draws from keys for the others. The composition is fixed; rng draws the
// warm keys and shuffles the order.
func planRequests(rng *rand.Rand, n int, share float64, keys []warmKey, sims, flows *freshGen) []request {
	nFresh := int(math.Round(share * float64(n)))
	nFlows := nFresh / 2
	plan := make([]request, n)
	for i, f := range flows.take("flow", nFlows) {
		plan[i].fresh = &f
	}
	for i, f := range sims.take("simulate", nFresh-nFlows) {
		plan[nFlows+i].fresh = &f
	}
	for i := nFresh; i < n; i++ {
		plan[i].warm = &keys[rng.Intn(len(keys))]
	}
	rng.Shuffle(n, func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

func freshBody(r freshReq) (string, []byte) {
	if r.Kind == "flow" {
		b, _ := json.Marshal(map[string]string{"source": r.Source})
		return "/v1/flow", b
	}
	type dot struct {
		X int `json:"x"`
		Y int `json:"y"`
	}
	dots := make([]dot, len(r.Dots))
	for i, d := range r.Dots {
		dots[i] = dot{d[0], d[1]}
	}
	b, _ := json.Marshal(map[string]any{"dots": dots})
	return "/v1/simulate", b
}

// randomDots places 6–12 distinct dots on a 24×12 cell window.
func randomDots(rng *rand.Rand) [][2]int {
	n := 6 + rng.Intn(7)
	used := map[[2]int]bool{}
	var out [][2]int
	for len(out) < n {
		d := [2]int{rng.Intn(24), rng.Intn(12)}
		if !used[d] {
			used[d] = true
			out = append(out, d)
		}
	}
	return out
}

func dotLayout(dots [][2]int) *sidb.Layout {
	l := &sidb.Layout{Name: "request"}
	for _, d := range dots {
		l.Add(lattice.FromCell(d[0], d[1]), sidb.RoleNormal)
	}
	return l
}

// randomNetlist writes a 3–4 input netlist of 3–8 two-input gates whose
// last gate, and the one before it, are outputs.
func randomNetlist(rng *rand.Rand) string {
	ops := []string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR"}
	nIn, nGates := 3+rng.Intn(2), 3+rng.Intn(6)
	var b strings.Builder
	var sigs []string
	for i := 0; i < nIn; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
		sigs = append(sigs, fmt.Sprintf("i%d", i))
	}
	fmt.Fprintf(&b, "OUTPUT(g%d)\nOUTPUT(g%d)\n", nGates-1, nGates-2)
	for g := 0; g < nGates; g++ {
		a := rng.Intn(len(sigs))
		c := rng.Intn(len(sigs) - 1)
		if c >= a {
			c++
		}
		fmt.Fprintf(&b, "g%d = %s(%s, %s)\n", g, ops[rng.Intn(len(ops))], sigs[a], sigs[c])
		sigs = append(sigs, fmt.Sprintf("g%d", g))
	}
	return b.String()
}

// usableNetlist rejects netlists the flow cannot lay out: an output that
// is constant or just a (possibly inverted) input, or an input no output
// depends on (the layout would leave its pin dangling).
func usableNetlist(x *network.XAG) bool {
	n := x.NumPIs()
	used := make([]bool, n)
	for _, t := range x.TruthTables() {
		deps := 0
		for i := 0; i < n; i++ {
			for p := 0; p < 1<<n; p++ {
				if t.Get(p) != t.Get(p^1<<i) {
					used[i] = true
					deps++
					break
				}
			}
		}
		if deps < 2 {
			return false
		}
	}
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}
