// Package bench parses and writes logic-level circuit specifications.
//
// Two input formats are supported, mirroring the paper's flow step (1)
// ("parse a specification file as XAG"):
//
//   - the ISCAS/Berkeley ".bench" netlist format (INPUT/OUTPUT/gate lines),
//   - a small structural Verilog subset (module, input, output, wire,
//     assign with ~ & | ^ and parentheses).
//
// Both parsers produce XAGs. The package also embeds the fourteen benchmark
// circuits of Table 1 (the trindade16 and fontes18 sets).
package bench

import (
	"fmt"
	"strings"

	"repro/internal/logic/network"
)

// ParseBench parses a .bench netlist into an XAG.
func ParseBench(name, src string) (*network.XAG, error) {
	x := network.New()
	x.Name = name
	signals := map[string]network.Signal{}
	type gateDef struct {
		out  string
		op   string
		args []string
		line int
	}
	var gates []gateDef
	var outputs []string

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT(") || strings.HasPrefix(up, "INPUT ("):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo+1, err)
			}
			if _, dup := signals[arg]; dup {
				return nil, fmt.Errorf("bench %s line %d: duplicate input %q", name, lineNo+1, arg)
			}
			signals[arg] = x.NewPI(arg)
		case strings.HasPrefix(up, "OUTPUT(") || strings.HasPrefix(up, "OUTPUT ("):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo+1, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench %s line %d: cannot parse %q", name, lineNo+1, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.IndexByte(rhs, '(')
			close := strings.LastIndexByte(rhs, ')')
			if open < 0 || close < open {
				return nil, fmt.Errorf("bench %s line %d: malformed gate %q", name, lineNo+1, line)
			}
			op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			var args []string
			for _, a := range strings.Split(rhs[open+1:close], ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			gates = append(gates, gateDef{out: out, op: op, args: args, line: lineNo + 1})
		}
	}

	// Resolve gates; netlists may define gates in any order, so iterate until
	// a fixpoint or report the first unresolvable gate.
	remaining := gates
	for len(remaining) > 0 {
		var next []gateDef
		progress := false
		for _, g := range remaining {
			ins := make([]network.Signal, 0, len(g.args))
			ok := true
			for _, a := range g.args {
				s, have := signals[a]
				if !have {
					ok = false
					break
				}
				ins = append(ins, s)
			}
			if !ok {
				next = append(next, g)
				continue
			}
			sig, err := buildGate(x, g.op, ins)
			if err != nil {
				return nil, fmt.Errorf("bench %s line %d: %v", name, g.line, err)
			}
			if _, dup := signals[g.out]; dup {
				return nil, fmt.Errorf("bench %s line %d: signal %q redefined", name, g.line, g.out)
			}
			signals[g.out] = sig
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("bench %s: unresolvable signals (cycle or missing): %q", name, next[0].out)
		}
		remaining = next
	}

	for _, o := range outputs {
		s, ok := signals[o]
		if !ok {
			return nil, fmt.Errorf("bench %s: output %q never defined", name, o)
		}
		x.NewPO(s, o)
	}
	if x.NumPOs() == 0 {
		return nil, fmt.Errorf("bench %s: no outputs", name)
	}
	return x, nil
}

// parenArg extracts the single argument of "KEYWORD(arg)".
func parenArg(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", fmt.Errorf("empty declaration %q", line)
	}
	return arg, nil
}

// buildGate folds an n-ary gate into XAG primitives.
func buildGate(x *network.XAG, op string, ins []network.Signal) (network.Signal, error) {
	reduce := func(f func(a, b network.Signal) network.Signal) (network.Signal, error) {
		if len(ins) < 2 {
			return 0, fmt.Errorf("%s needs at least 2 inputs, got %d", op, len(ins))
		}
		acc := ins[0]
		for _, s := range ins[1:] {
			acc = f(acc, s)
		}
		return acc, nil
	}
	switch op {
	case "AND":
		return reduce(x.And)
	case "OR":
		return reduce(x.Or)
	case "XOR":
		return reduce(x.Xor)
	case "NAND":
		s, err := reduce(x.And)
		return s.Not(), err
	case "NOR":
		s, err := reduce(x.Or)
		return s.Not(), err
	case "XNOR":
		s, err := reduce(x.Xor)
		return s.Not(), err
	case "NOT", "INV":
		if len(ins) != 1 {
			return 0, fmt.Errorf("NOT needs exactly 1 input, got %d", len(ins))
		}
		return ins[0].Not(), nil
	case "BUF", "BUFF":
		if len(ins) != 1 {
			return 0, fmt.Errorf("BUF needs exactly 1 input, got %d", len(ins))
		}
		return ins[0], nil
	case "MAJ":
		if len(ins) != 3 {
			return 0, fmt.Errorf("MAJ needs exactly 3 inputs, got %d", len(ins))
		}
		return x.Maj(ins[0], ins[1], ins[2]), nil
	case "MUX":
		if len(ins) != 3 {
			return 0, fmt.Errorf("MUX needs exactly 3 inputs (sel, then, else), got %d", len(ins))
		}
		return x.Mux(ins[0], ins[1], ins[2]), nil
	case "CONST0", "GND":
		return x.Const(false), nil
	case "CONST1", "VDD":
		return x.Const(true), nil
	default:
		return 0, fmt.Errorf("unknown gate type %q", op)
	}
}
