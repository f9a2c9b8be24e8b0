package cache

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
)

// walk runs one Tiers.Do for key with a string-valued result: use accepts
// any entry except "corrupt", and compute (when called) returns entry. The
// tier use is told of must be the source Do reports.
func walk(t *testing.T, tiers *Tiers, key Key, entry []byte, computeErr error) (got string, source string, computed bool) {
	t.Helper()
	used := ""
	source, err := tiers.Do(context.Background(), key,
		func(src string, b []byte) error {
			if string(b) == "corrupt" {
				return errors.New("undecodable entry")
			}
			got, used = string(b), src
			return nil
		},
		func() ([]byte, error) {
			computed = true
			if computeErr != nil {
				return nil, computeErr
			}
			got = "computed"
			return entry, nil
		})
	if !errors.Is(err, computeErr) {
		t.Fatalf("Do error = %v, want %v", err, computeErr)
	}
	if used != "" && used != source {
		t.Fatalf("use was told tier %q, Do reports %q", used, source)
	}
	return got, source, computed
}

// TestTiersWalk pins the one cache walk every result kind goes through:
// tier order, promotion into faster tiers, write-through on a miss,
// decode failures as misses, and never storing errors or uncacheable
// (nil-entry) results.
func TestTiersWalk(t *testing.T) {
	const key = Key("sim:k")
	disk := newFakeDisk()
	tiers := &Tiers{Mem: NewLRU(1 << 20), Disk: disk}

	if _, src, computed := walk(t, tiers, key, []byte("v"), nil); src != SourceMiss || !computed {
		t.Fatalf("cold walk: source %q computed %v, want miss and a computation", src, computed)
	}
	if string(disk.data[key]) != "v" {
		t.Fatal("miss did not write through to the disk tier")
	}
	if got, src, computed := walk(t, tiers, key, nil, nil); src != SourceMem || computed || got != "v" {
		t.Fatalf("warm walk: %q from %q (computed %v), want v from mem", got, src, computed)
	}

	// A restart empties memory: the disk serves and is promoted into memory.
	restarted := &Tiers{Mem: NewLRU(1 << 20), Disk: disk}
	diskGets := disk.gets
	if got, src, _ := walk(t, restarted, key, nil, nil); src != SourceDisk || got != "v" {
		t.Fatalf("after restart: %q from %q, want v from disk", got, src)
	}
	if got, src, _ := walk(t, restarted, key, nil, nil); src != SourceMem || got != "v" {
		t.Fatalf("after the disk hit: %q from %q, want v from mem", got, src)
	}
	if disk.gets != diskGets+1 {
		t.Fatal("disk hit not promoted into memory")
	}

	// An undecodable memory entry is a miss that falls through to the disk.
	corrupt := &Tiers{Mem: NewLRU(1 << 20), Disk: disk}
	corrupt.Mem.Put(key, []byte("corrupt"))
	if got, src, _ := walk(t, corrupt, key, nil, nil); src != SourceDisk || got != "v" {
		t.Fatalf("corrupt memory entry: %q from %q, want v from disk", got, src)
	}

	// Uncacheable results and errors are never stored; an empty key
	// bypasses every tier.
	empty := &Tiers{Mem: NewLRU(1 << 20), Disk: newFakeDisk()}
	if _, src, _ := walk(t, empty, "sim:degraded", nil, nil); src != SourceBypass {
		t.Fatalf("nil entry: source %q, want bypass", src)
	}
	boom := errors.New("solver failed")
	if _, src, _ := walk(t, empty, "sim:failed", []byte("x"), boom); src != SourceMiss {
		t.Fatalf("failed compute: source %q, want miss", src)
	}
	if n := empty.Mem.Len() + len(empty.Disk.(*fakeDisk).data); n != 0 {
		t.Fatalf("%d entries stored from degraded or failed computations", n)
	}
	if _, src, computed := walk(t, empty, "", []byte("x"), nil); src != SourceBypass || !computed || empty.Mem.Len() != 0 {
		t.Fatalf("empty key: source %q computed %v, %d stored; want an uncached computation", src, computed, empty.Mem.Len())
	}
}

// TestTiersRemapsSimCharges: a ground state computed for one dot
// insertion order and served warm to the other must index charges by the
// consumer's dot order and match a direct solve bit for bit.
func TestTiersRemapsSimCharges(t *testing.T) {
	la, lb, perm := twoLayouts()
	ea := sim.NewEngine(la, sim.ParamsFig5)
	eb := sim.NewEngine(lb, sim.ParamsFig5)
	inner, err := sim.Lookup("exgs")
	if err != nil {
		t.Fatal(err)
	}
	tiers := &Tiers{Mem: NewLRU(1 << 20)}
	solve := func(e *sim.Engine) (sim.Solution, string) {
		key, order := SimKey(e, inner.Name())
		var sol sim.Solution
		src, err := tiers.Do(context.Background(), key,
			func(_ string, b []byte) (err error) {
				sol, err = DecodeSolution(b, order)
				return err
			},
			func() ([]byte, error) {
				var err error
				if sol, err = inner.Solve(e, sim.SolveOptions{}); err != nil {
					return nil, err
				}
				return EncodeSolution(sol, order), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return sol, src
	}

	cold, src := solve(ea)
	if src != SourceMiss {
		t.Fatalf("first solve served from %q", src)
	}
	warm, src := solve(eb)
	if src != SourceMem {
		t.Fatalf("permuted layout served from %q, want mem", src)
	}
	if warm.EnergyEV != cold.EnergyEV {
		t.Fatalf("warm energy %v != cold energy %v", warm.EnergyEV, cold.EnergyEV)
	}
	// Layout b's dot j is layout a's dot perm[j].
	for j := range warm.Charges {
		if warm.Charges[j] != cold.Charges[perm[j]] {
			t.Fatalf("charge remap wrong at dot %d: warm %v, cold[perm] %v",
				j, warm.Charges[j], cold.Charges[perm[j]])
		}
	}
	direct, err := inner.Solve(eb, sim.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.EnergyEV != warm.EnergyEV {
		t.Fatalf("warm energy %v != direct energy %v", warm.EnergyEV, direct.EnergyEV)
	}
}
