package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
)

func openT(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSealUnsealRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		got, err := Unseal(Seal(payload))
		if err != nil {
			t.Fatalf("Unseal(Seal(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip altered payload: %q vs %q", got, payload)
		}
	}
}

func TestUnsealDetectsDamage(t *testing.T) {
	rec := Seal([]byte("payload bytes"))

	// Truncation at every prefix length must be ErrTruncated or ErrCorrupt,
	// never a bogus success.
	for n := 0; n < len(rec); n++ {
		if _, err := Unseal(rec[:n]); err == nil {
			t.Fatalf("Unseal accepted a %d/%d-byte prefix", n, len(rec))
		}
	}
	// A flipped payload bit must fail the checksum.
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] ^= 0x40
	if _, err := Unseal(bad); err == nil {
		t.Fatal("Unseal accepted a corrupted payload")
	}
	// A wrong magic must be ErrCorrupt.
	bad = append([]byte(nil), rec...)
	bad[0] = 'X'
	if _, err := Unseal(bad); err == nil {
		t.Fatal("Unseal accepted a bad magic")
	}
}

func TestAppendReplayLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir)
	events := []Event{
		{Type: EventSubmitted, JobID: "j1", Kind: "flow", Path: "/v1/flow", Body: []byte(`{"bench":"xor2"}`), Key: "flow:abc", IdemKey: "idem-1"},
		{Type: EventStarted, JobID: "j1"},
		{Type: EventSubmitted, JobID: "j2", Kind: "simulate", Path: "/v1/simulate"},
		{Type: EventFinished, JobID: "j1"},
		{Type: EventSubmitted, JobID: "j3", Kind: "validate"},
		{Type: EventStarted, JobID: "j3"},
		{Type: EventCanceled, JobID: "j3", ErrorKind: "canceled"},
		{Type: EventSubmitted, JobID: "j4", Kind: "flow"},
		{Type: EventStarted, JobID: "j4"},
		{Type: EventFinished, JobID: "j4", ErrorKind: "panic"},
		{Type: EventSubmitted, JobID: "j5", Kind: "flow"},
		{Type: EventStarted, JobID: "j5"},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2 := openT(t, dir)
	defer j2.Close()
	recs := j2.Recovered()
	want := map[string][2]string{ // id -> {state, error_kind}
		"j1": {StateDone, ""},
		"j2": {StateQueued, ""},
		"j3": {StateCanceled, "canceled"},
		"j4": {StateFailed, "panic"},
		"j5": {StateRunning, ""},
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d jobs, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		w, ok := want[r.Submitted.JobID]
		if !ok {
			t.Fatalf("unexpected job %q", r.Submitted.JobID)
		}
		if r.State != w[0] || r.ErrorKind != w[1] {
			t.Errorf("job %s: state %q kind %q, want %q %q",
				r.Submitted.JobID, r.State, r.ErrorKind, w[0], w[1])
		}
	}
	// The submission payload must survive replay byte for byte — it is
	// what resubmission re-creates the work from.
	for _, r := range recs {
		if r.Submitted.JobID == "j1" {
			if string(r.Submitted.Body) != `{"bench":"xor2"}` || r.Submitted.Key != "flow:abc" ||
				r.Submitted.IdemKey != "idem-1" || r.Submitted.Path != "/v1/flow" {
				t.Errorf("j1 submission payload mangled: %+v", r.Submitted)
			}
		}
	}
}

// TestTornTailTruncates proves the crash-mid-append case: a half-written
// final record must be dropped cleanly, the events before it must stand,
// and the journal must keep accepting appends afterwards.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir)
	for i := 0; i < 5; i++ {
		if err := j.Append(Event{Type: EventSubmitted, JobID: fmt.Sprintf("j%d", i), Kind: "flow"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: keep all but the final 7 bytes of the last record.
	if err := os.WriteFile(seg, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, dir)
	recs := j2.Recovered()
	if len(recs) != 4 {
		t.Fatalf("recovered %d jobs after torn tail, want 4", len(recs))
	}
	// The file must have been truncated to the last good boundary, and a
	// fresh append after the tear must replay cleanly.
	if err := j2.Append(Event{Type: EventSubmitted, JobID: "j9", Kind: "flow"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openT(t, dir)
	defer j3.Close()
	if got := len(j3.Recovered()); got != 5 {
		t.Fatalf("recovered %d jobs after post-tear append, want 5", got)
	}
}

// TestCorruptMidFileStopsSegment proves a flipped bit mid-segment cannot
// poison replay: records before the damage stand, records after it are
// abandoned (the honest choice — their framing can no longer be trusted).
func TestCorruptMidFileStopsSegment(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir)
	for i := 0; i < 6; i++ {
		if err := j.Append(Event{Type: EventSubmitted, JobID: fmt.Sprintf("j%d", i), Kind: "flow"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openT(t, dir)
	defer j2.Close()
	recs := j2.Recovered()
	if len(recs) == 0 || len(recs) >= 6 {
		t.Fatalf("recovered %d jobs from a mid-file-corrupt segment, want 1..5", len(recs))
	}
}

// TestRotationCompacts proves rotation drops completed lifecycles and
// carries live jobs forward: after many completed jobs force rotations,
// only the live jobs replay and older segments are gone.
func TestRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.segmentBytes = 2048 // rotate many times in a short test
	// One long-lived running job that every rotation must carry forward.
	j.Append(Event{Type: EventSubmitted, JobID: "live", Kind: "flow", Body: []byte(`{"bench":"c17"}`)})
	j.Append(Event{Type: EventStarted, JobID: "live"})
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%04d", i)
		j.Append(Event{Type: EventSubmitted, JobID: id, Kind: "simulate"})
		j.Append(Event{Type: EventStarted, JobID: id})
		j.Append(Event{Type: EventFinished, JobID: id})
	}
	j.Close()

	segs, err := j.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments after rotation, want 1 (compaction must delete old ones)", len(segs))
	}
	j2 := openT(t, dir)
	defer j2.Close()
	recs := j2.Recovered()
	// Completed jobs appended since the last rotation legitimately linger
	// in the current segment; compaction's guarantee is that the table
	// stays bounded (not 601 events of history) and the live job survives.
	if len(recs) > 20 {
		t.Fatalf("recovered %d jobs; compaction is not dropping completed lifecycles", len(recs))
	}
	var liveRecs []JobRecord
	for _, r := range recs {
		if !r.Terminal() {
			liveRecs = append(liveRecs, r)
		}
	}
	if len(liveRecs) != 1 {
		t.Fatalf("%d non-terminal jobs recovered, want exactly the live one", len(liveRecs))
	}
	r := liveRecs[0]
	if r.Submitted.JobID != "live" || r.State != StateRunning || string(r.Submitted.Body) != `{"bench":"c17"}` {
		t.Fatalf("live job mangled by compaction: %+v", r)
	}
}

// TestReplayDeterminism is the satellite regression: N interleaved
// lifecycle records, a torn final record, AND an injected journal.replay
// fault must still produce an identical recovered job table on every
// replay (a fixed fault seed replays the same skip schedule).
func TestReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir)
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("j%04d", i)
		j.Append(Event{Type: EventSubmitted, JobID: id, Kind: "flow", Body: []byte(fmt.Sprintf(`{"n":%d}`, i))})
		if i%2 == 0 {
			j.Append(Event{Type: EventStarted, JobID: id})
		}
		switch i % 4 {
		case 0:
			j.Append(Event{Type: EventFinished, JobID: id})
		case 1:
			j.Append(Event{Type: EventCanceled, JobID: id, ErrorKind: "timeout"})
		}
	}
	j.Close()
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-11], 0o644); err != nil { // torn tail
		t.Fatal(err)
	}

	replay := func() []JobRecord {
		// Same fault spec and seed each time: the skip schedule must replay
		// identically.
		if err := faults.Arm("journal.replay=every:9", 1); err != nil {
			t.Fatal(err)
		}
		defer faults.Disarm()
		// Open truncates the torn tail on the first replay; later replays
		// see the already-clean file. Both must yield the same table.
		jr, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer jr.Close()
		return jr.Recovered()
	}

	first := replay()
	if len(first) == 0 {
		t.Fatal("empty recovered table")
	}
	var wg sync.WaitGroup
	tables := make([][]JobRecord, 8)
	for i := range tables {
		// Sequential opens (the journal locks its segment files by
		// convention, not flock) — but compare under -race via goroutine
		// handoff of the results.
		tables[i] = replay()
	}
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !reflect.DeepEqual(first, tables[i]) {
				t.Errorf("replay %d diverged:\nfirst: %+v\n  got: %+v", i, first, tables[i])
			}
		}(i)
	}
	wg.Wait()
}

// TestAppendFaultPoint proves the journal.append fault surfaces as an
// error without wedging the journal.
func TestAppendFaultPoint(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir)
	defer j.Close()
	if err := faults.Arm("journal.append=n:2", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	if err := j.Append(Event{Type: EventSubmitted, JobID: "a", Kind: "flow"}); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := j.Append(Event{Type: EventSubmitted, JobID: "b", Kind: "flow"}); err == nil {
		t.Fatal("append 2: fault did not fire")
	}
	if err := j.Append(Event{Type: EventSubmitted, JobID: "c", Kind: "flow"}); err != nil {
		t.Fatalf("append 3 (after fault): %v", err)
	}
}

// TestConcurrentAppend drives appends from many goroutines (the queue's
// workers and the HTTP submit path interleave in production) under -race.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.segmentBytes = 8 << 10 // rotate many times in a short test
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("g%dj%d", g, i)
				j.Append(Event{Type: EventSubmitted, JobID: id, Kind: "flow"})
				j.Append(Event{Type: EventStarted, JobID: id})
				j.Append(Event{Type: EventFinished, JobID: id})
			}
		}(g)
	}
	wg.Wait()
	j.Close()
	j2 := openT(t, dir)
	defer j2.Close()
	for _, r := range j2.Recovered() {
		if !r.Terminal() {
			t.Fatalf("job %s replayed non-terminal (%s) after full lifecycles", r.Submitted.JobID, r.State)
		}
	}
}
