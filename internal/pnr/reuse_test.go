package pnr_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pnr"
)

// warmAllocBound caps the allocations of a warm Exact call on c17. The
// call measured 104 with the idle encoder and 7012 with a new solver per
// call; the bound leaves room for the first and none for the second.
const warmAllocBound = 150

// TestExactWarmAllocs checks that an Exact call after another one builds
// its formulas in the storage the first call left behind.
func TestExactWarmAllocs(t *testing.T) {
	g := frontEnd(t, "c17")
	exact := func() {
		if _, err := pnr.Exact(context.Background(), g, pnr.ExactOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	exact()
	if n := testing.AllocsPerRun(10, exact); n > warmAllocBound {
		t.Errorf("warm Exact(c17) allocates %v times per call, want at most %d", n, warmAllocBound)
	}
}

// pollCtx is a context that reports cancellation from its n-th Err call
// on. A search that polls it is cut off at a fixed point of its work,
// whatever the speed of the machine.
type pollCtx struct {
	context.Context
	n    int
	done chan struct{}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.n--; c.n > 0 {
		return nil
	}
	if c.n == 0 {
		close(c.done)
	}
	return context.Canceled
}

// TestExactReuseAfterCancel cancels a newtag search in the middle of a SAT
// solve, then places c17 and newtag again: the encoder the cancelled call
// leaves in the idle slot must give the layouts table1.golden pins.
func TestExactReuseAfterCancel(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f := strings.Fields(line)
		want[f[0]] = f[len(f)-1]
	}

	// newtag polls its context 26 times over its 11 sizes: once per size
	// before solving, once after each UNSAT size, and every 256 decisions
	// within a solve (once in 8x9, four times in 8x10). The 24th poll, at
	// 512 decisions, falls inside the search of its last size, 8x10.
	tr := obs.New()
	ctx := &pollCtx{Context: context.Background(), n: 24, done: make(chan struct{})}
	if _, err := pnr.Exact(ctx, frontEnd(t, "newtag"), pnr.ExactOptions{Tracer: tr}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled newtag search returned %v, want context.Canceled", err)
	}
	var last map[string]any
	var walk func(ss []*obs.StageReport)
	walk = func(ss []*obs.StageReport) {
		for _, s := range ss {
			if s.Name == "pnr/exact/size" {
				last = s.Attrs
			}
			walk(s.Children)
		}
	}
	walk(tr.Report("newtag").Stages)
	if d, _ := last["decisions"].(int64); last["status"] != "UNKNOWN" || d == 0 {
		t.Fatalf("cancel did not interrupt a solve in progress: last size %v", last)
	}

	for _, name := range []string{"c17", "newtag"} {
		if d := pnr.TileDigest(exactLayout(t, name)); d != want[name] {
			t.Errorf("%s after a cancelled search: digest %s, table1.golden has %s", name, d, want[name])
		}
	}
}
