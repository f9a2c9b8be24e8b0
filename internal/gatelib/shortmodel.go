package gatelib

// ShortModel builds the truncated tile used to derive gate cores: the last
// two pairs of each input stub before the canvas (NW, plus NE when nIn is
// 2) and the first two pairs of each chosen output stub after it (SW
// first). Its canvas is empty; a design search sets Extra. ValidateWith
// adds the same input emulation and read-out perturbers as for a full
// tile. This is the search space the paper's RL agent explored;
// internal/designer enumerates its canvases exhaustively.
func ShortModel(nIn int, sw, se bool) *Design {
	d := &Design{Name: "short"}
	addIn := func(stub []Pair) {
		d.Pairs = append(d.Pairs, stub...)
		d.Ins = append(d.Ins, stub[0])
	}
	addOut := func(stub []Pair) {
		d.Pairs = append(d.Pairs, stub...)
		d.Outs = append(d.Outs, stub[1])
	}
	addIn(inNW[1:])
	if nIn == 2 {
		addIn(inNE[1:])
	}
	if sw {
		addOut(outSW[:2])
	}
	if se {
		addOut(outSE[:2])
	}
	return d
}
