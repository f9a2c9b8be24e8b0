package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestConcurrentIdenticalRequestsCoalesce is the single-flight
// acceptance test: N concurrent identical cold requests produce exactly
// one solver invocation and byte-identical responses.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	caches := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots())
			codes[i], bodies[i], caches[i] = resp.StatusCode, body, resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
		if caches[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d X-Cache misses across %d identical concurrent requests; want exactly 1", misses, n)
	}
	if got := s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 1 {
		t.Fatalf("cold solves = %d; want exactly 1 solver invocation", got)
	}
}

func TestBatchDedupAndFanout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sim, err := json.Marshal(fourDots())
	if err != nil {
		t.Fatal(err)
	}
	other := fourDots()
	other["dots"] = append(other["dots"].([]map[string]any), map[string]any{"x": 6, "y": 0, "role": "perturber"})
	sim2, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}

	req := map[string]any{"items": []map[string]any{
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "simulate", "request": json.RawMessage(sim2)},
		{"op": "simulate", "request": json.RawMessage(sim)},
		{"op": "bogus"},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 5 {
		t.Fatalf("%d item results; want 5", len(br.Items))
	}
	if br.Unique != 2 || br.Deduplicated != 2 {
		t.Fatalf("unique=%d deduplicated=%d; want 2 and 2", br.Unique, br.Deduplicated)
	}
	if br.Items[0].Status != "ok" || br.Items[0].Cache == "dedup" {
		t.Fatalf("leader item: %+v", br.Items[0])
	}
	for _, i := range []int{1, 3} {
		it := br.Items[i]
		if it.Status != "ok" || it.Cache != "dedup" {
			t.Fatalf("follower item %d: %+v", i, it)
		}
		if !bytes.Equal(it.Result, br.Items[0].Result) {
			t.Fatalf("follower %d result differs from its leader", i)
		}
	}
	if br.Items[2].Status != "ok" || br.Items[2].Cache == "dedup" {
		t.Fatalf("distinct item: %+v", br.Items[2])
	}
	if bytes.Equal(br.Items[2].Result, br.Items[0].Result) {
		t.Fatal("distinct payloads produced identical results")
	}
	if br.Items[4].Status != "error" || !strings.Contains(br.Items[4].Error, "unknown op") {
		t.Fatalf("bad item: %+v", br.Items[4])
	}
	// Three simulate items with one key plus one with another: the solver
	// must have run once per unique key.
	if got := s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 2 {
		t.Fatalf("cold solves = %d; want 2 (one per unique key)", got)
	}
	if got := s.tr.Counter("batch/deduped_total").Value(); got != 2 {
		t.Fatalf("batch_deduped_total = %d; want 2", got)
	}
}

// TestBatchItemsAfterDeadline pins what batch items answer once the
// batch's shared deadline has passed. Slow exact flows hold every fan-out
// slot past the deadline, so the last two items start after it: the warm
// one still answers ok from memory, the cold one times out, and none is
// skipped.
func TestBatchItemsAfterDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", fourDots()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
	}
	slow, _ := json.Marshal(map[string]any{"source": slowPNRNetlist, "engine": "exact", "nocache": true})
	warm, _ := json.Marshal(fourDots())
	cold := fourDots()
	cold["dots"] = append(cold["dots"].([]map[string]any), map[string]any{"x": 6, "y": 0, "role": "perturber"})
	coldReq, _ := json.Marshal(cold)
	var items []map[string]any
	for range batchConcurrency {
		items = append(items, map[string]any{"op": "flow", "request": json.RawMessage(slow)})
	}
	items = append(items,
		map[string]any{"op": "simulate", "request": json.RawMessage(warm)},
		map[string]any{"op": "simulate", "request": json.RawMessage(coldReq)})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": items, "timeout_ms": 200})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("%d item results; want %d", len(br.Items), len(items))
	}
	for i, it := range br.Items[:batchConcurrency] {
		if it.Status != "error" || it.ErrorKind != ErrKindTimeout {
			t.Errorf("slow flow item %d: %+v; want a timeout", i, it)
		}
	}
	if it := br.Items[batchConcurrency]; it.Status != "ok" || it.Cache != "mem" {
		t.Errorf("warm item after the deadline: %+v; want ok from mem", it)
	}
	if it := br.Items[batchConcurrency+1]; it.Status != "error" || it.ErrorKind != ErrKindTimeout {
		t.Errorf("cold item after the deadline: %+v; want a timeout", it)
	}
}

func TestBatchRejectsAsyncItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	flowReq, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho", "async": true})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{{"op": "flow", "request": json.RawMessage(flowReq)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != "error" || !strings.Contains(br.Items[0].Error, "async") {
		t.Fatalf("async item: %+v", br.Items[0])
	}
}

func TestBatchBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
	items := make([]map[string]any, maxBatchItems+1)
	for i := range items {
		items[i] = map[string]any{"op": "simulate", "request": json.RawMessage(`{}`)}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", resp.StatusCode)
	}
}

// TestAdmissionShedsByCostClass saturates the queue and checks the shed
// order: flow first, then simulate/validate, while reads always pass.
func TestAdmissionShedsByCostClass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Fill the worker and the queue slot with blocking jobs: utilization
	// (1 running + 1 queued) / (1 worker + 1 slot) = 1.0.
	release := make(chan struct{})
	block := func(context.Context) (any, error) {
		<-release
		return nil, nil
	}
	if _, err := s.queue.Submit("test", 0, block); err != nil {
		t.Fatal(err)
	}
	// The queue slot frees only once a worker picks the job up; wait for
	// that before filling the slot itself.
	waitForCond(t, func() bool { return s.queue.Running() == 1 })
	if _, err := s.queue.Submit("test", 0, block); err != nil {
		t.Fatal(err)
	}
	defer close(release)
	waitForCond(t, func() bool { return s.queue.Running() == 1 && s.queue.Depth() == 1 })

	var gl struct {
		Gates []string `json:"gates"`
	}
	resp0, glBody := getRaw(t, ts.URL+"/v1/gates")
	if resp0.StatusCode != http.StatusOK || json.Unmarshal(glBody, &gl) != nil || len(gl.Gates) == 0 {
		t.Fatalf("gate list: %d %s", resp0.StatusCode, glBody)
	}

	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho"}},
		{"/v1/simulate", fourDots()},
		{"/v1/gates/validate", map[string]any{"gate": gl.Gates[0]}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s at full utilization: %d %s; want 429", c.path, resp.StatusCode, body)
		}
		var e struct {
			Kind string `json:"error_kind"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Kind != ErrKindShed {
			t.Fatalf("%s: error_kind %q body %s", c.path, e.Kind, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("%s: Retry-After %q; want a positive estimate", c.path, ra)
		}
	}

	// Reads are never shed.
	resp, err := http.Get(ts.URL + "/v1/gates")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read at full utilization: %d; reads must never shed", resp.StatusCode)
	}

	// /healthz reports the saturation and the classes being shed.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Saturation struct {
			QueueDepth  int      `json:"queue_depth"`
			JobsRunning int      `json:"jobs_running"`
			Utilization float64  `json:"utilization"`
			Shedding    []string `json:"shedding"`
		} `json:"saturation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Saturation.QueueDepth != 1 || hz.Saturation.JobsRunning != 1 {
		t.Fatalf("healthz saturation: %+v", hz.Saturation)
	}
	if hz.Saturation.Utilization < 1 {
		t.Fatalf("healthz utilization %v; want 1", hz.Saturation.Utilization)
	}
	if len(hz.Saturation.Shedding) == 0 || hz.Saturation.Shedding[0] != "flow" {
		t.Fatalf("healthz shedding %v; want flow first", hz.Saturation.Shedding)
	}
	if got := s.tr.Counter(obs.Labeled("admission/shed_total", "class", "flow")).Value(); got != 1 {
		t.Fatalf("admission_shed_total{flow} = %d; want 1", got)
	}
}

func TestSheddingClassOrder(t *testing.T) {
	cases := []struct {
		u    float64
		want []string
	}{
		{0.5, nil},
		{0.8, []string{"flow"}},
		{0.95, []string{"flow", "simulate", "validate"}},
	}
	for _, c := range cases {
		got := sheddingClasses(c.u)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("sheddingClasses(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}

const testCacheKey = "sim:00000000000000000000000000000000000000000000000000000000000000aa"

// TestInternalCacheRoundtrip exercises the peer-cache protocol endpoint
// without a secret (loopback trust).
func TestInternalCacheRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	put := func(key string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/internal/cache/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put(testCacheKey, []byte("payload")); code != http.StatusNoContent {
		t.Fatalf("put: %d", code)
	}
	resp, body := getRaw(t, ts.URL+"/internal/cache/"+testCacheKey)
	if resp.StatusCode != http.StatusOK || string(body) != "payload" {
		t.Fatalf("get: %d %q", resp.StatusCode, body)
	}
	resp, _ = getRaw(t, ts.URL+"/internal/cache/"+strings.Replace(testCacheKey, "aa", "bb", 1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: %d; want 404", resp.StatusCode)
	}
	for _, bad := range []string{"sim:short", "evil:" + strings.Repeat("a", 64), "sim:" + strings.Repeat("G", 64)} {
		resp, _ = getRaw(t, ts.URL+"/internal/cache/"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed key %q: %d; want 400", bad, resp.StatusCode)
		}
	}
}

// TestInternalCacheSecret: with a fleet secret configured, loopback alone
// is no longer enough.
func TestInternalCacheSecret(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Cluster: &cluster.Config{
		Self:   "127.0.0.1:1",
		Secret: "s3cret",
	}})
	t.Cleanup(s.node.Stop)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/internal/cache/"+testCacheKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("no secret: %d; want 403", resp.StatusCode)
	}
	req.Header.Set(cluster.SecretHeader, "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("with secret: %d; want 404 (authorized, empty cache)", resp.StatusCode)
	}
}

// TestClusterForwarding boots two real peered replicas and checks that a
// request landing on the non-owner is forwarded to the owner, solved
// once, and served warm from the owner on repeat.
func TestClusterForwarding(t *testing.T) {
	servers, urls, addrs := startPeeredServers(t, 2)

	// Find which replica owns the test payload's cache key.
	b, err := json.Marshal(fourDots())
	if err != nil {
		t.Fatal(err)
	}
	var simReq simulateRequest
	if err := json.Unmarshal(b, &simReq); err != nil {
		t.Fatal(err)
	}
	op, err := servers[0].prepareSimulate(&simReq)
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr, _ := servers[0].node.Owner(string(op.key))
	owner, nonOwner := 0, 1
	if ownerAddr == addrs[1] {
		owner, nonOwner = 1, 0
	}

	resp, body := postJSON(t, urls[nonOwner]+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded cold: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(clusterPeerHeader); got != addrs[owner] {
		t.Fatalf("X-Cluster-Peer = %q; want owner %q", got, addrs[owner])
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("forwarded cold X-Cache = %q; want miss", got)
	}

	// Repeat against the non-owner: forwarded again, served from the
	// owner's cache, byte-identical.
	resp2, body2 := postJSON(t, urls[nonOwner]+"/v1/simulate", fourDots())
	if resp2.Header.Get(clusterPeerHeader) != addrs[owner] || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("forwarded warm: peer=%q cache=%q", resp2.Header.Get(clusterPeerHeader), resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("forwarded warm body differs from cold")
	}

	// The owner solved once; the non-owner never solved at all.
	if got := servers[owner].tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 1 {
		t.Fatalf("owner cold solves = %d; want 1", got)
	}
	if got := servers[nonOwner].tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 0 {
		t.Fatalf("non-owner cold solves = %d; want 0", got)
	}
	if got := servers[nonOwner].tr.Counter(obs.Labeled("cluster/forwarded_total", "outcome", "ok")).Value(); got != 2 {
		t.Fatalf("forwarded ok = %d; want 2", got)
	}
}

// TestClusterForwardingFallsBackWhenOwnerDies: with the owner gone, the
// non-owner must solve locally instead of failing the request.
func TestClusterForwardingLocalFallback(t *testing.T) {
	servers, urls, addrs := startPeeredServers(t, 2)

	b, err := json.Marshal(fourDots())
	if err != nil {
		t.Fatal(err)
	}
	var simReq simulateRequest
	if err := json.Unmarshal(b, &simReq); err != nil {
		t.Fatal(err)
	}
	op, err := servers[0].prepareSimulate(&simReq)
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr, _ := servers[0].node.Owner(string(op.key))
	owner, nonOwner := 0, 1
	if ownerAddr == addrs[1] {
		owner, nonOwner = 1, 0
	}

	// Kill the owner's listener; probes have not yet noticed, so the
	// non-owner still tries to forward — and must fall back locally.
	servers[owner].node.Stop()
	closeListener(t, urls[owner])

	resp, body := postJSON(t, urls[nonOwner]+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(clusterPeerHeader); got != "" {
		t.Fatalf("fallback carried X-Cluster-Peer %q; want local handling", got)
	}
	if got := servers[nonOwner].tr.Counter(obs.Labeled("cluster/forwarded_total", "outcome", "error")).Value(); got == 0 {
		t.Fatal("forward error counter not incremented")
	}
}

// TestBatchKeylessPanicIsolated: a keyless (nocache) batch item executes
// on a raw fan-out goroutine outside the worker pool's recover; a panic
// there must become that item's error, not kill the process.
func TestBatchKeylessPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if err := faults.Arm("service.exec.panic=always", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	flowReq, _ := json.Marshal(map[string]any{"bench": "xor2", "engine": "ortho", "nocache": true})
	resp, body := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"items": []map[string]any{{"op": "flow", "request": json.RawMessage(flowReq)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Status != "error" || br.Items[0].ErrorKind != ErrKindPanic {
		t.Fatalf("keyless panicking item: %+v", br.Items[0])
	}
	if got := s.tr.Counter("jobs/panicked_total").Value(); got == 0 {
		t.Fatal("exec panic not counted in jobs_panicked_total")
	}

	// The daemon survived: a healthy request still completes.
	faults.Disarm()
	resp, body = postJSON(t, ts.URL+"/v1/simulate", fourDots())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request after panic: %d %s", resp.StatusCode, body)
	}
}

// TestClusterForwardTimesOutToLocalFallback: an owner that accepts the
// connection but never answers (a stopped process holds its listener
// open; probes only notice later) must not hang the client — the
// forward deadline expires and the request is solved locally.
func TestClusterForwardTimesOutToLocalFallback(t *testing.T) {
	hangL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hang := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})}
	go hang.Serve(hangL)
	defer hang.Close()
	hangAddr := hangL.Addr().String()

	selfL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	selfAddr := selfL.Addr().String()
	s, err := New(Config{Workers: 2, JobTimeout: 2 * time.Second, Cluster: &cluster.Config{
		Self:  selfAddr,
		Peers: []string{hangAddr},
		// One probe round runs at startup (one strike; two mark a peer
		// dead), then nothing for the rest of the test: the hung peer
		// stays in the ring, as it would in the window before detection.
		ProbeInterval: time.Hour,
		ProbeTimeout:  10 * time.Millisecond,
		// The local fallback's cache lookup consults the hung owner too;
		// keep that bounded so it doesn't eat the local job budget.
		PeerTimeout: 10 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(selfL)
	t.Cleanup(func() {
		s.node.Stop()
		hs.Close()
	})

	oldSlack := forwardSlack
	forwardSlack = 100 * time.Millisecond
	t.Cleanup(func() { forwardSlack = oldSlack })

	// Find a payload the hung peer owns, so the request forwards. The
	// request's own timeout_ms (clamped to JobTimeout) drives the forward
	// deadline, so the hang resolves in ~400ms.
	payload := fourDots()
	payload["timeout_ms"] = 300
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("no candidate payload owned by the hung peer")
		}
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		var simReq simulateRequest
		if err := json.Unmarshal(b, &simReq); err != nil {
			t.Fatal(err)
		}
		op, err := s.prepareSimulate(&simReq)
		if err != nil {
			t.Fatal(err)
		}
		if owner, self := s.node.Owner(string(op.key)); !self && owner == hangAddr {
			break
		}
		payload = fourDots()
		payload["timeout_ms"] = 300
		payload["dots"] = append(payload["dots"].([]map[string]any),
			map[string]any{"x": 8 + i, "y": 4, "role": "perturber"})
	}

	start := time.Now()
	resp, body := postJSON(t, "http://"+selfAddr+"/v1/simulate", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback after forward timeout: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(clusterPeerHeader); got != "" {
		t.Fatalf("X-Cluster-Peer %q on a timed-out forward; want local handling", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v; the forward deadline did not bound the hang", elapsed)
	}
	if got := s.tr.Counter(obs.Labeled("cluster/forwarded_total", "outcome", "timeout")).Value(); got != 1 {
		t.Fatalf("forwarded timeout count = %d; want 1", got)
	}
	if got := s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", "simulate")).Value(); got != 1 {
		t.Fatalf("local cold solves = %d; want 1 (fallback solved here)", got)
	}
}

// TestRunCoalescedRerunsAfterLeaderDeadline: a joiner with a longer
// budget than the starter must not inherit the starter's
// DeadlineExceeded — it retries once under its own deadline.
func TestRunCoalescedRerunsAfterLeaderDeadline(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	started := make(chan struct{})
	op := &preparedOp{kind: "simulate", key: "sim:deadline-test"}
	op.compute = func(ctx context.Context, jtr *obs.Tracer) (*jobResult, []byte, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // burn the starter's whole (short) budget
			return nil, nil, ctx.Err()
		}
		return &jobResult{body: []byte("ok")}, nil, nil
	}

	leaderErr := make(chan error, 1)
	ctxA, cancelA := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelA()
	go func() {
		_, err := s.runCoalesced(ctxA, op, obs.New())
		leaderErr <- err
	}()
	<-started

	ctxB, cancelB := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelB()
	jr, err := s.runCoalesced(ctxB, op, obs.New())
	if err != nil {
		t.Fatalf("joiner with live budget failed: %v", err)
	}
	if string(jr.body) != "ok" {
		t.Fatalf("joiner result %q; want the rerun's result", jr.body)
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("starter error = %v; want DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("exec calls = %d; want 2 (expired run + rerun)", got)
	}
	if got := s.tr.Counter("cluster/singleflight_rerun_total").Value(); got != 1 {
		t.Fatalf("singleflight rerun count = %d; want 1", got)
	}
}

// TestFleetColdStormCollapses boots three peered replicas and sends a
// concurrent cold storm of identical simulate and validate requests,
// spread round-robin over the replicas. Ring ownership plus fleet-wide
// single-flight must collapse the storm onto about one solve per key,
// and the fleet's warm hit rate must match a standalone replica's.
func TestFleetColdStormCollapses(t *testing.T) {
	servers, urls, _ := startPeeredServers(t, 3)
	var ops []fleetOp
	for _, path := range []string{"/v1/simulate", "/v1/gates/validate"} {
		for _, g := range fleetGates {
			ops = append(ops, fleetOp{path, g})
		}
	}
	// Three clients per replica, so every replica sees simultaneous
	// requests for the same key.
	const clients, rounds = 9, 2

	fleetPhase(t, urls, ops, clients, 1, false)
	hits, total := fleetPhase(t, urls, ops, clients, rounds, false)
	if t.Failed() {
		return
	}
	// Cold solves are cumulative, so a warm-phase re-solve (a dedup
	// failure) counts against the bound too. Timing skew lets a straggler
	// re-solve a key now and then, so the bound is about one solve per key,
	// not exactly one.
	var solves int64
	for _, s := range servers {
		for _, kind := range []string{"simulate", "validate"} {
			solves += s.tr.Counter(obs.Labeled("jobs/cold_solves_total", "kind", kind)).Value()
		}
	}
	if float64(solves) > 1.5*float64(len(ops)) {
		t.Errorf("%d cold solves for %d unique keys: fleet single-flight not deduplicating", solves, len(ops))
	}

	// Baseline: a sequential cold pass against one standalone replica, then
	// the same warm phase; its hit rate is the bar the fleet must clear.
	// Nine clients against two workers and depth 8 can fill the queue: a
	// client gets its answer before the worker that served it takes the
	// next job, so all nine can be queued while both workers sit idle. That
	// 429 is the queue's contract, so these clients honour it.
	_, ts := newTestServer(t, Config{Workers: 2})
	fleetPhase(t, []string{ts.URL}, ops, 1, 1, false)
	soloHits, soloTotal := fleetPhase(t, []string{ts.URL}, ops, clients, rounds, true)
	fleetRate := float64(hits) / float64(total)
	soloRate := float64(soloHits) / float64(soloTotal)
	t.Logf("%d cold solves for %d keys; warm hit rate %.2f (standalone %.2f)", solves, len(ops), fleetRate, soloRate)
	if fleetRate < soloRate-0.05 {
		t.Errorf("fleet warm hit rate %.2f below standalone %.2f", fleetRate, soloRate)
	}
}

// fleetGates is the library subset the fleet storm requests: every
// one-input tile plus two two-input gates, whose solves are long enough
// that the storm's identical requests overlap in flight.
var fleetGates = []string{
	"wire:iNE:oSW", "wire:iNW:oSE", "diag:iNE:oSE", "diag:iNW:oSW",
	"inv:iNE:oSE", "inv:iNE:oSW", "inv:iNW:oSE", "inv:iNW:oSW",
	"fanout:iNE:oSW:oSE", "fanout:iNW:oSW:oSE",
	"pi:oSE", "pi:oSW", "po:iNE", "po:iNW",
	"nand:iNW:iNE:oSE", "nor:iNW:iNE:oSW",
}

type fleetOp struct{ path, gate string }

// fleetPhase has clients concurrent clients each make rounds passes over
// ops. Client c sends op i to urls[(c+i)%len(urls)], so each op reaches
// different replicas from different clients at once. It returns the
// X-Cache hits and the answers counted; any failed request fails the test.
// With retryShed, a client that gets a 429 with Retry-After waits that
// long and resends, up to maxShedRetries times, as a real client would.
func fleetPhase(t *testing.T, urls []string, ops []fleetOp, clients, rounds int, retryShed bool) (hits, total int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, op := range ops {
					url := urls[(c+i)%len(urls)] + op.path
					resp, body, err := fleetPost(url, op.gate)
					for try := 0; err == nil && retryShed && try < maxShedRetries && resp.StatusCode == http.StatusTooManyRequests; try++ {
						secs, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
						if perr != nil {
							break
						}
						t.Logf("POST %s %s shed; retrying after %ds", url, op.gate, secs)
						time.Sleep(time.Duration(secs) * time.Second)
						resp, body, err = fleetPost(url, op.gate)
					}
					if err != nil {
						t.Errorf("POST %s %s: %v", url, op.gate, err)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("POST %s %s: %d %s", url, op.gate, resp.StatusCode, body)
						continue
					}
					mu.Lock()
					total++
					if resp.Header.Get("X-Cache") == "hit" {
						hits++
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return hits, total
}

// maxShedRetries bounds how often a fleetPhase client resends a shed
// request.
const maxShedRetries = 3

// fleetPost sends one gate request and reads the whole answer.
func fleetPost(url, gate string) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"gate":"`+gate+`"}`))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

type errorReader struct{}

func (errorReader) Read([]byte) (int, error) { return 0, errors.New("peer connection reset") }

// TestInternalCachePutErrorClassification: only a genuine size overrun
// is a 413; a mid-body read failure is a 400.
func TestInternalCachePutErrorClassification(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	big := bytes.Repeat([]byte("x"), maxInternalEntryBytes+1)
	req := httptest.NewRequest(http.MethodPut, "/internal/cache/"+testCacheKey, bytes.NewReader(big))
	req.RemoteAddr = "127.0.0.1:9999"
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized entry: %d; want 413", rec.Code)
	}

	req = httptest.NewRequest(http.MethodPut, "/internal/cache/"+testCacheKey, errorReader{})
	req.RemoteAddr = "127.0.0.1:9999"
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("read failure: %d; want 400, not a bogus 413", rec.Code)
	}
}

var testListeners sync.Map // url -> *http.Server

// startPeeredServers boots n real peered replicas on loopback listeners
// (httptest cannot be used: each replica must know its own routable
// address before the handler exists).
func startPeeredServers(t *testing.T, n int) (servers []*Server, urls, addrs []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs = make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for i := range listeners {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s, err := New(Config{Workers: 2, Cluster: &cluster.Config{
			Self:          addrs[i],
			Peers:         peers,
			Secret:        "test-fleet",
			ProbeInterval: 50 * time.Millisecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(listeners[i])
		url := "http://" + addrs[i]
		testListeners.Store(url, hs)
		t.Cleanup(func() {
			hs.Close()
			// Drain also stops the probe loop and the overview poller, which
			// would otherwise keep polling closed peers for the rest of the
			// test binary.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
		})
		servers = append(servers, s)
		urls = append(urls, url)
	}
	return servers, urls, addrs
}

func closeListener(t *testing.T, url string) {
	t.Helper()
	hs, ok := testListeners.Load(url)
	if !ok {
		t.Fatalf("no server for %s", url)
	}
	hs.(*http.Server).Close()
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, body.Bytes()
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
