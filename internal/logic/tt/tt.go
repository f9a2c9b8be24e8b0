// Package tt implements dynamic truth tables for Boolean functions of up to
// 16 variables, the workhorse representation behind NPN classification, cut
// rewriting, and equivalence checking in the logic-synthesis substrate.
//
// A truth table over n variables stores 2^n bits; bit i holds f(x) for the
// input assignment whose binary encoding is i, with variable 0 as the least
// significant input.
package tt

import (
	"fmt"
	"strings"
)

// MaxVars is the largest supported number of truth-table variables.
const MaxVars = 16

// TT is a truth table over NumVars variables backed by 64-bit words.
type TT struct {
	n     int
	words []uint64
}

// wordCount returns the number of 64-bit words needed for n variables.
func wordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// usedMask returns the mask of meaningful bits in a single-word table.
func usedMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// New returns the constant-false truth table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: unsupported variable count %d", n))
	}
	return TT{n: n, words: make([]uint64, wordCount(n))}
}

// FromHex parses a hexadecimal truth-table string (most significant digit
// first) for n variables, e.g. "8" for AND-2, "6" for XOR-2, "e8" for MAJ-3.
func FromHex(n int, s string) (TT, error) {
	t := New(n)
	digits := (1 << n) / 4
	if digits == 0 {
		digits = 1
	}
	if len(s) != digits {
		return TT{}, fmt.Errorf("tt: hex string %q needs %d digits for %d vars", s, digits, n)
	}
	for i := 0; i < len(s); i++ {
		c := s[len(s)-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("tt: invalid hex digit %q", c)
		}
		t.words[i/16] |= v << (4 * (i % 16))
	}
	t.mask()
	return t, nil
}

// Hex returns the hexadecimal string of the table, most significant first.
func (t TT) Hex() string {
	digits := (1 << t.n) / 4
	if digits == 0 {
		digits = 1
	}
	var sb strings.Builder
	for i := digits - 1; i >= 0; i-- {
		v := (t.words[i/16] >> (4 * (i % 16))) & 0xf
		sb.WriteByte("0123456789abcdef"[v])
	}
	return sb.String()
}

// String implements fmt.Stringer as "0x<hex>/<n>".
func (t TT) String() string { return fmt.Sprintf("0x%s/%d", t.Hex(), t.n) }

// NumVars returns the number of variables of the table.
func (t TT) NumVars() int { return t.n }

// Bits returns the number of rows (2^n).
func (t TT) Bits() int { return 1 << t.n }

// Clone returns a deep copy of the table.
func (t TT) Clone() TT {
	c := TT{n: t.n, words: make([]uint64, len(t.words))}
	copy(c.words, t.words)
	return c
}

// mask clears unused high bits of single-word tables.
func (t *TT) mask() {
	if t.n < 6 {
		t.words[0] &= usedMask(t.n)
	}
}

// Get returns bit i of the table.
func (t TT) Get(i int) bool { return t.words[i>>6]>>(uint(i)&63)&1 == 1 }

// Set sets bit i of the table to v.
func (t *TT) Set(i int, v bool) {
	if v {
		t.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		t.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Const returns the constant-v truth table over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
		t.mask()
	}
	return t
}

// varMasks holds the canonical single-word projections of variables 0..5.
var varMasks = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// Var returns the projection truth table of variable v over n variables.
func Var(n, v int) TT {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d vars", v, n))
	}
	t := New(n)
	if v < 6 {
		for i := range t.words {
			t.words[i] = varMasks[v]
		}
	} else {
		period := 1 << (v - 6) // in words: period of off/on blocks
		for i := range t.words {
			if (i/period)&1 == 1 {
				t.words[i] = ^uint64(0)
			}
		}
	}
	t.mask()
	return t
}

// checkArity panics if the two tables have different variable counts.
func checkArity(a, b TT) {
	if a.n != b.n {
		panic(fmt.Sprintf("tt: arity mismatch %d vs %d", a.n, b.n))
	}
}

// Not returns the complement of the table.
func (t TT) Not() TT {
	c := t.Clone()
	for i := range c.words {
		c.words[i] = ^c.words[i]
	}
	c.mask()
	return c
}

// And returns the conjunction of two tables of equal arity.
func (t TT) And(o TT) TT {
	checkArity(t, o)
	c := t.Clone()
	for i := range c.words {
		c.words[i] &= o.words[i]
	}
	return c
}

// Or returns the disjunction of two tables of equal arity.
func (t TT) Or(o TT) TT {
	checkArity(t, o)
	c := t.Clone()
	for i := range c.words {
		c.words[i] |= o.words[i]
	}
	return c
}

// Xor returns the exclusive-or of two tables of equal arity.
func (t TT) Xor(o TT) TT {
	checkArity(t, o)
	c := t.Clone()
	for i := range c.words {
		c.words[i] ^= o.words[i]
	}
	return c
}

// Equal reports whether two tables represent the same function (same arity
// and same bits).
func (t TT) Equal(o TT) bool {
	if t.n != o.n {
		return false
	}
	for i := range t.words {
		if t.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether the table is constant, returning the value.
func (t TT) IsConst() (bool, bool) {
	allZero, allOne := true, true
	m := usedMask(t.n)
	for i, w := range t.words {
		mm := ^uint64(0)
		if i == 0 && t.n < 6 {
			mm = m
		}
		if w&mm != 0 {
			allZero = false
		}
		if w&mm != mm {
			allOne = false
		}
	}
	if allZero {
		return true, false
	}
	if allOne {
		return true, true
	}
	return false, false
}

// Cofactor returns the cofactor of the function with variable v fixed to val.
// The result keeps the same arity (variable v becomes don't-care).
func (t TT) Cofactor(v int, val bool) TT {
	c := t.Clone()
	proj := Var(t.n, v)
	if v < 6 {
		shift := uint(1) << v
		for i := range c.words {
			if val {
				hi := c.words[i] & proj.words[i]
				c.words[i] = hi | (hi >> shift)
			} else {
				lo := c.words[i] &^ proj.words[i]
				c.words[i] = lo | (lo << shift)
			}
		}
	} else {
		period := 1 << (v - 6)
		for i := range c.words {
			block := (i / period) & 1
			src := i
			if val && block == 0 {
				src = i + period
			} else if !val && block == 1 {
				src = i - period
			}
			c.words[i] = t.words[src]
		}
	}
	c.mask()
	return c
}

// DependsOn reports whether the function depends on variable v.
func (t TT) DependsOn(v int) bool {
	return !t.Cofactor(v, false).Equal(t.Cofactor(v, true))
}

// Permute returns the table with inputs permuted: new variable i reads the
// old variable perm[i].
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.n {
		panic("tt: permutation length mismatch")
	}
	out := New(t.n)
	for i := 0; i < t.Bits(); i++ {
		j := 0
		for v := 0; v < t.n; v++ {
			if (i>>v)&1 == 1 {
				j |= 1 << perm[v]
			}
		}
		out.Set(i, t.Get(j))
	}
	return out
}

// FlipVar returns the table with variable v complemented.
func (t TT) FlipVar(v int) TT {
	out := New(t.n)
	for i := 0; i < t.Bits(); i++ {
		out.Set(i^(1<<v), t.Get(i))
	}
	return out
}

// Eval evaluates the function for the input assignment given as a bit vector
// (bit v of input = value of variable v).
func (t TT) Eval(input uint32) bool { return t.Get(int(input) & (t.Bits() - 1)) }

// Word returns the first word of the table; valid for n ≤ 6 tables and used
// as a compact hash key.
func (t TT) Word() uint64 { return t.words[0] }
