package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/gatelib"
	"repro/internal/obs"
)

// fullFlow asks for every flow artifact, so the response carries the
// SiQAD file and the stage report: the largest flow body.
var fullFlow = map[string]any{"bench": "c17", "sqd": true, "report": true}

// flowKey is the cache key the server gives req.
func flowKey(t *testing.T, s *Server, req map[string]any) cache.Key {
	t.Helper()
	return opKey(t, s, "/v1/flow", req)
}

// opKey is the cache key the server gives req on the endpoint path.
func opKey(t *testing.T, s *Server, path string, req map[string]any) cache.Key {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	op, err := findRoute(func(rt *opRoute) bool { return rt.path == path }).prepare(s, raw)
	if err != nil {
		t.Fatal(err)
	}
	return op.key
}

// postFlow posts a flow request and checks its status and X-Cache.
func postFlow(t *testing.T, url, wantCache string) (*http.Response, []byte) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/flow", fullFlow)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != wantCache {
		t.Fatalf("flow: %d X-Cache %q, want 200 %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), wantCache, body)
	}
	return resp, body
}

// coldSolves is the server's count of computed flows.
func coldSolves(s *Server) int64 {
	return s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "flow")).Value()
}

// TestFlowBodyByteIdentity: a flow body is the same bytes whichever way
// it is served. The cold body must equal the memory hit, the disk hit on a
// new server over the same cache dir and its later memory hit, the
// result of a /v1/batch item, and the result of GET /v1/jobs/{id}.
func TestFlowBodyByteIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 2, QueueDepth: 64, CacheDir: dir})
	_, cold := postFlow(t, ts1.URL, "miss")
	if !bytes.HasSuffix(cold, []byte("}\n")) {
		t.Fatalf("cold body does not end in one newline: %q", cold[max(0, len(cold)-8):])
	}
	value := cold[:len(cold)-1] // the body as an embedded JSON value
	if !strings.Contains(string(cold), `"sqd":"`) || !strings.Contains(string(cold), `"report":{`) {
		t.Fatal("cold body lacks the SiQAD file or the report")
	}

	warm, body := postFlow(t, ts1.URL, "hit")
	if !bytes.Equal(body, cold) {
		t.Fatal("memory hit differs from the cold body")
	}
	if st, result := jobStatus(t, ts1.URL, warm.Header.Get("X-Job-Id")); st.State != JobDone || !bytes.Equal(result, value) {
		t.Fatalf("GET /v1/jobs result differs from the cold body (state %s)", st.State)
	}
	// Concurrent hits share the cached slice; under -race this proves that
	// no hit writes into it.
	var wg sync.WaitGroup
	bodies := make([][]byte, 8)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts1.URL+"/v1/flow", "application/json", strings.NewReader(`{"bench":"c17","sqd":true,"report":true}`))
			if err != nil {
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, cold) {
			t.Fatalf("concurrent memory hit %d differs from the cold body: %.200s", i, b)
		}
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, body = postFlow(t, ts2.URL, "hit")
	if st := s2.lru.Stats(); st.Hits != 0 || st.Misses != 1 || !bytes.Equal(body, cold) {
		t.Fatalf("disk hit: memory stats %+v, body equal %v", st, bytes.Equal(body, cold))
	}
	_, body = postFlow(t, ts2.URL, "hit")
	if st := s2.lru.Stats(); st.Hits != 1 || !bytes.Equal(body, cold) {
		t.Fatalf("memory hit after the disk hit: memory stats %+v, body equal %v", st, bytes.Equal(body, cold))
	}
	if n := coldSolves(s2); n != 0 {
		t.Fatalf("restarted server computed %d flows, want 0", n)
	}

	item, _ := json.Marshal(fullFlow)
	for _, ts := range []*httptest.Server{ts1, ts2} {
		resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
			"items": []map[string]any{{"op": "flow", "request": json.RawMessage(item)}},
		})
		var br batchResponse
		if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Items) != 1 {
			t.Fatalf("batch: %d %v", resp.StatusCode, err)
		}
		if it := br.Items[0]; it.Cache != cache.SourceMem || !bytes.Equal(it.Result, value) {
			t.Fatalf("batch item from %q differs from the cold body", it.Cache)
		}
	}
	if n := coldSolves(s1); n != 1 {
		t.Fatalf("first server computed %d flows, want 1", n)
	}
}

// TestFlowEntryDecodedAtTheBoundary: flow entries are decoded once, when
// they enter the process from disk. A disk entry that is not a
// FlowArtifact is a miss and never served; a well-formed one is served as
// written.
func TestFlowEntryDecodedAtTheBoundary(t *testing.T) {
	ctx := context.Background()
	var key cache.Key
	var cold []byte
	for _, bad := range []string{"not json", "null", "[1,2]", `{"width":"wide"}`, `{"name":"c17"`} {
		dir := t.TempDir()
		s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
		key = flowKey(t, s, fullFlow)
		d, err := cache.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(ctx, key, []byte(bad)); err != nil {
			t.Fatal(err)
		}
		_, cold = postFlow(t, ts.URL, "miss")
		if n := coldSolves(s); n != 1 {
			t.Fatalf("computed %d flows over the disk entry %q, want 1", n, bad)
		}
	}

	dir := t.TempDir()
	d, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, key, cold[:len(cold)-1]); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, body := postFlow(t, ts2.URL, "hit")
	if !bytes.Equal(body, cold) || coldSolves(s2) != 0 {
		t.Fatalf("disk entry: body equal %v, %d computed", bytes.Equal(body, cold), coldSolves(s2))
	}
}

// TestUndecodableDiskFlowEntryIsAMiss: a disk entry whose checksum holds
// but whose body is not a FlowArtifact is a miss: the flow is computed,
// and the good entry replaces it on disk.
func TestUndecodableDiskFlowEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	key := flowKey(t, s, fullFlow)
	d, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(context.Background(), key, []byte(`{"sidbs":[]}`)); err != nil {
		t.Fatal(err)
	}
	_, cold := postFlow(t, ts.URL, "miss")
	if n := coldSolves(s); n != 1 {
		t.Fatalf("computed %d flows, want 1", n)
	}
	if b, ok, err := d.Get(context.Background(), key); err != nil || !ok || !bytes.Equal(b, cold[:len(cold)-1]) {
		t.Fatalf("disk entry not replaced by the computed flow (ok %v, err %v)", ok, err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, body := postFlow(t, ts2.URL, "hit")
	if !bytes.Equal(body, cold) || coldSolves(s2) != 0 {
		t.Fatalf("replaced entry: body equal %v, %d computed", bytes.Equal(body, cold), coldSolves(s2))
	}
}

// TestRetiredEngineEntryIsAMiss: a cached simulate or validate answer
// whose engine this build no longer has (an annealed `auto` answer on a
// disk cache written before QuickSim) reads as a miss, and the re-solved
// answer replaces it on disk.
func TestRetiredEngineEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// retire renames the engine in a cached entry: EncodeSolution's layout
	// is energy (8 bytes), exact flag, name length (2 bytes), name,
	// charges; a validation is its JSON.
	retireSol := func(b []byte) []byte {
		n := int(b[9])<<8 | int(b[10])
		out := append([]byte(nil), b[:8]...)
		out = append(out, 0, 0, byte(len("anneal")))
		return append(append(out, "anneal"...), b[11+n:]...)
	}
	retireVal := func(b []byte) []byte {
		var v gatelib.Validation
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		v.Method = "anneal"
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		path   string
		req    map[string]any
		retire func([]byte) []byte
	}{
		{"/v1/simulate", map[string]any{"gate": "and:iNW:iNE:oSE"}, retireSol},
		{"/v1/gates/validate", map[string]any{"gate": "wire:iNE:oSW"}, retireVal},
	} {
		s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
		key := opKey(t, s, c.path, c.req)
		_, cold := postJSON(t, ts.URL+c.path, c.req)
		b, ok, err := d.Get(context.Background(), key)
		if err != nil || !ok {
			t.Fatalf("%s: no disk entry (ok %v, err %v)", c.path, ok, err)
		}
		if err := d.Put(context.Background(), key, c.retire(b)); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"miss", "hit"} {
			_, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
			resp, body := postJSON(t, ts.URL+c.path, c.req)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want || !bytes.Equal(body, cold) {
				t.Fatalf("%s: %d X-Cache %q, want 200 %q and the cold body: %s", c.path, resp.StatusCode, resp.Header.Get("X-Cache"), want, body)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps the headers and drops the
// body, so a measurement sees the handler's allocations, not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// warmFlowHit primes a server with the full c17 flow and returns one warm
// request through its handler and the body length it writes.
func warmFlowHit(tb testing.TB) (hit func(), bodyLen int) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Drain(context.Background()) })
	raw, _ := json.Marshal(fullFlow)
	h := s.Handler()
	hit = func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/flow", bytes.NewReader(raw))
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("flow: %d", w.code)
		}
		bodyLen = w.n
	}
	hit()
	hit()
	return hit, bodyLen
}

// warmHitAllocBound is the most bytes one warm full-c17 flow hit may
// allocate through the handler. Measured on x86-64 with Go 1.24: about
// 15 KiB per hit for a 127 KiB body (request parse, c17 netlist and key,
// job, tracer, flight record). Decoding and re-encoding the entry on every
// hit, as the service once did, allocated 360–420 KiB.
const warmHitAllocBound = 32 << 10

// TestWarmFlowHitAllocs: a warm flow hit writes the cached bytes, so it
// allocates far fewer bytes than the body it serves.
func TestWarmFlowHitAllocs(t *testing.T) {
	hit, bodyLen := warmFlowHit(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm flow hit: %d bytes allocated for a %d-byte body", perHit, bodyLen)
	if perHit > warmHitAllocBound || perHit > uint64(bodyLen)/2 {
		t.Errorf("warm flow hit allocates %d bytes for a %d-byte body, want at most %d", perHit, bodyLen, warmHitAllocBound)
	}
}

// BenchmarkWarmFlowHit times one warm full-c17 flow hit through the
// handler: request parse, queue, cache read and the body write.
func BenchmarkWarmFlowHit(b *testing.B) {
	hit, bodyLen := warmFlowHit(b)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		hit()
	}
}
