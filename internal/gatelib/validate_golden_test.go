package gatelib

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/defects"
	"repro/internal/sim"
)

var updateValidate = flag.Bool("update", false, "regenerate testdata/validate.golden")

// goldenSurface is a charged-defect surface around the tile: a stray DB
// and an arsenic dopant close enough to shift the electrostatics, neither
// with a dot inside its exclusion zone.
func goldenSurface() *defects.Surface {
	surf := defects.New()
	surf.AddCell(-8, 10, defects.DB)
	surf.AddCell(TileWidth+6, 20, defects.Arsenic)
	return surf
}

// validateLine is one golden record: the verdict, the outputs, the method
// and the minimum gap bit for bit.
func validateLine(name string, v Validation) string {
	return fmt.Sprintf("%s ok=%v outputs=%v method=%s gap=%s\n",
		name, v.OK, v.Outputs, v.Method, strconv.FormatFloat(v.MinGapEV, 'x', -1, 64))
}

// TestValidateGolden pins ValidateWith's OK, Outputs, Method and MinGapEV
// on every library variant under the auto and quickexact solvers, plus
// one variant on a charged-defect surface. Regenerate with -update only
// for a change that is meant to move them.
func TestValidateGolden(t *testing.T) {
	lib := NewLibrary()
	keys := lib.Variants()
	sort.Strings(keys)
	var buf bytes.Buffer
	validate := func(name, key string, opts ValidateOptions) {
		d, f, _ := lib.Design(key)
		v, err := ValidateWith(d, TruthOf(f), sim.ParamsFig5, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf.WriteString(validateLine(name, v))
	}
	for _, solver := range []string{"auto", "quickexact"} {
		for _, key := range keys {
			validate(solver+" "+key, key, ValidateOptions{Solver: solver})
		}
	}
	validate("auto-defects inv:iNW:oSE", "inv:iNW:oSE", ValidateOptions{Surface: goldenSurface()})

	path := filepath.Join("testdata", "validate.golden")
	if *updateValidate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
