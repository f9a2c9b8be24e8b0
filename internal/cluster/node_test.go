package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// fakePeer is an httptest stand-in for a replica: togglable health and an
// in-memory /internal/cache store that enforces the shared secret.
type fakePeer struct {
	srv     *httptest.Server
	healthy atomic.Bool
	secret  string
	store   map[string][]byte
}

func newFakePeer(t *testing.T, secret string) *fakePeer {
	t.Helper()
	p := &fakePeer{secret: secret, store: map[string][]byte{}}
	p.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !p.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/internal/cache/", func(w http.ResponseWriter, r *http.Request) {
		if !AuthorizeInternal(r, p.secret) {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		key := strings.TrimPrefix(r.URL.Path, "/internal/cache/")
		switch r.Method {
		case http.MethodGet:
			if b, ok := p.store[key]; ok {
				w.Write(b)
				return
			}
			w.WriteHeader(http.StatusNotFound)
		case http.MethodPut:
			b := make([]byte, r.ContentLength)
			r.Body.Read(b)
			p.store[key] = b
			w.WriteHeader(http.StatusNoContent)
		}
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) addr() string { return strings.TrimPrefix(p.srv.URL, "http://") }

func TestNodeProbeLiveness(t *testing.T) {
	peer := newFakePeer(t, "")
	n, err := NewNode(Config{
		Self:          "127.0.0.1:1", // never dialed: only the peer is probed
		Peers:         []string{peer.addr()},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	if !n.alive(peer.addr()) {
		t.Fatal("peer must be presumed alive at startup")
	}

	// Down: after FailThreshold consecutive probe failures the peer is
	// dead and the ring excludes it.
	peer.healthy.Store(false)
	waitFor(t, time.Second, func() bool { return !n.alive(peer.addr()) })
	if got := n.Status().RingMembers; got != 1 {
		t.Fatalf("ring members %d after peer death; want 1", got)
	}
	if owner, self := n.Owner("sim:00"); !self || owner != "127.0.0.1:1" {
		t.Fatalf("sole survivor must own every key; got %s self=%v", owner, self)
	}

	// Up: one successful probe resurrects it.
	peer.healthy.Store(true)
	waitFor(t, time.Second, func() bool { return n.alive(peer.addr()) })
	if got := n.Status().RingMembers; got != 2 {
		t.Fatalf("ring members %d after recovery; want 2", got)
	}
}

func TestNodeDrainingPeerCountsAsDown(t *testing.T) {
	peer := newFakePeer(t, "")
	peer.healthy.Store(false) // 503: draining, not dead — but no new work
	n, err := NewNode(Config{
		Self:          "127.0.0.1:1",
		Peers:         []string{peer.addr()},
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	waitFor(t, time.Second, func() bool { return !n.alive(peer.addr()) })
}

func TestNodeCacheProtocol(t *testing.T) {
	const secret = "s3cret"
	peer := newFakePeer(t, secret)
	n, err := NewNode(Config{Self: "127.0.0.1:1", Peers: []string{peer.addr()}, Secret: secret})
	if err != nil {
		t.Fatal(err)
	}

	key := cache.Key("sim:" + strings.Repeat("ab", 32))
	ctx := context.Background()

	if _, ok, err := n.cacheGet(ctx, peer.addr(), key); err != nil || ok {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := n.cachePut(ctx, peer.addr(), key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b, ok, err := n.cacheGet(ctx, peer.addr(), key)
	if err != nil || !ok || string(b) != "payload" {
		t.Fatalf("roundtrip: %q ok=%v err=%v", b, ok, err)
	}
}

func TestNodeCacheSecretRejected(t *testing.T) {
	peer := newFakePeer(t, "right")
	n, err := NewNode(Config{Self: "127.0.0.1:1", Peers: []string{peer.addr()}, Secret: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key("sim:" + strings.Repeat("cd", 32))
	if err := n.cachePut(context.Background(), peer.addr(), key, []byte("x")); err == nil {
		t.Fatal("put with wrong secret must fail")
	}
	if _, _, err := n.cacheGet(context.Background(), peer.addr(), key); err == nil {
		t.Fatal("get with wrong secret must error, not miss")
	}
}

func TestAuthorizeInternal(t *testing.T) {
	mk := func(remote, secret string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/internal/cache/x", nil)
		r.RemoteAddr = remote
		if secret != "" {
			r.Header.Set(SecretHeader, secret)
		}
		return r
	}
	cases := []struct {
		name   string
		req    *http.Request
		secret string
		want   bool
	}{
		{"secret match", mk("10.0.0.9:1234", "s"), "s", true},
		{"secret mismatch", mk("10.0.0.9:1234", "wrong"), "s", false},
		{"secret missing", mk("127.0.0.1:1234", ""), "s", false},
		{"no secret loopback", mk("127.0.0.1:1234", ""), "", true},
		{"no secret v6 loopback", mk("[::1]:1234", ""), "", true},
		{"no secret remote", mk("10.0.0.9:1234", ""), "", false},
	}
	for _, c := range cases {
		if got := AuthorizeInternal(c.req, c.secret); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPeerLayer exercises the node's cache.Layer methods: owner-directed
// gets with dead-peer skipping, and puts that no-op when self is the owner.
func TestPeerLayer(t *testing.T) {
	peer := newFakePeer(t, "")
	n, err := NewNode(Config{Self: "127.0.0.1:1", Peers: []string{peer.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	layer := n

	// Probe every tag prefix until we find keys owned by each side.
	var peerKey, selfKey cache.Key
	for i := 0; peerKey == "" || selfKey == ""; i++ {
		k := cache.Key(keyWithSuffix(i))
		if owner, self := n.Owner(string(k)); self && selfKey == "" {
			selfKey = k
		} else if !self && owner == peer.addr() && peerKey == "" {
			peerKey = k
		}
	}

	// A peer-owned key roundtrips through the peer's store.
	if err := layer.Put(context.Background(), peerKey, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if b, ok, err := layer.Get(context.Background(), peerKey); err != nil || !ok || string(b) != "v" {
		t.Fatalf("peer-owned get: %q ok=%v err=%v", b, ok, err)
	}

	// A self-owned key is a local no-op: the regular cache tiers hold it.
	if err := layer.Put(context.Background(), selfKey, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := layer.Get(context.Background(), selfKey); err != nil || ok {
		t.Fatalf("self-owned get must miss cleanly: ok=%v err=%v", ok, err)
	}

	// With the sole peer dead, gets degrade to clean misses (no owner to
	// ask) instead of errors.
	n.mu.Lock()
	n.peers[0].alive = false
	n.rebuildLocked()
	n.mu.Unlock()
	if _, ok, err := layer.Get(context.Background(), peerKey); err != nil || ok {
		t.Fatalf("dead-fleet get: ok=%v err=%v; want clean miss", ok, err)
	}
}

// TestNodeRequestHeaders records every request the node sends to a peer
// — a probe, a cache get and put, a JSON get and a forward — and checks
// the fleet protocol's headers: the secret on /internal/* paths only, and
// a request id on every request (the context's, or a minted one whose
// prefix names the operation). It also checks the entry cap on a get.
func TestNodeRequestHeaders(t *testing.T) {
	const secret = "s3cret"
	type seen struct{ method, path, secret, rid string }
	var (
		mu    sync.Mutex
		reqs  []seen
		entry []byte
	)
	setEntry := func(b []byte) {
		mu.Lock()
		entry = b
		mu.Unlock()
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, seen{r.Method, r.URL.Path, r.Header.Get(SecretHeader), r.Header.Get(RequestIDHeader)})
		body := entry
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		switch {
		case r.URL.Path == "/internal/stats":
			w.Write([]byte(`{"ok":true}`))
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/internal/cache/"):
			w.Write(body)
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(peer.Close)
	addr := strings.TrimPrefix(peer.URL, "http://")
	n, err := NewNode(Config{Self: "127.0.0.1:1", Peers: []string{addr}, Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key("sim:" + strings.Repeat("ef", 32))
	withID := obs.ContextWithRequestID(context.Background(), "req-7")

	n.probeAll()
	setEntry([]byte("v"))
	if _, ok, err := n.cacheGet(context.Background(), addr, key); err != nil || !ok {
		t.Fatalf("cache get: ok=%v err=%v", ok, err)
	}
	if err := n.cachePut(withID, addr, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	var st struct{ OK bool }
	if err := n.GetJSON(withID, addr, "/internal/stats", 1<<10, &st); err != nil || !st.OK {
		t.Fatalf("json get: %+v err=%v", st, err)
	}
	resp, err := n.Forward(withID, addr, "/v1/simulate", []byte("{}"), http.Header{"Content-Type": {"application/json"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	want := []struct{ method, path, ridPrefix string }{
		{http.MethodGet, "/healthz", "probe-"},
		{http.MethodGet, "/internal/cache/" + string(key), "peer-"},
		{http.MethodPut, "/internal/cache/" + string(key), "req-7"},
		{http.MethodGet, "/internal/stats", "req-7"},
		{http.MethodPost, "/v1/simulate", "req-7"},
	}
	mu.Lock()
	got := reqs
	mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("peer saw %d requests; want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.method != w.method || g.path != w.path {
			t.Errorf("request %d: %s %s; want %s %s", i, g.method, g.path, w.method, w.path)
		}
		wantSecret := ""
		if strings.HasPrefix(w.path, "/internal/") {
			wantSecret = secret
		}
		if g.secret != wantSecret {
			t.Errorf("%s %s: secret %q; want %q", g.method, g.path, g.secret, wantSecret)
		}
		if !strings.HasPrefix(g.rid, w.ridPrefix) || (w.ridPrefix != "req-7" && len(g.rid) <= len(w.ridPrefix)) {
			t.Errorf("%s %s: request id %q; want prefix %q", g.method, g.path, g.rid, w.ridPrefix)
		}
	}

	// The entry cap: MaxEntryBytes passes, one byte more is an error.
	setEntry(bytes.Repeat([]byte("x"), MaxEntryBytes))
	if b, ok, err := n.cacheGet(context.Background(), addr, key); err != nil || !ok || len(b) != MaxEntryBytes {
		t.Fatalf("entry at the cap: %d bytes ok=%v err=%v", len(b), ok, err)
	}
	setEntry(bytes.Repeat([]byte("x"), MaxEntryBytes+1))
	if _, ok, err := n.cacheGet(context.Background(), addr, key); err == nil || ok {
		t.Fatalf("entry over the cap: ok=%v err=%v; want an error", ok, err)
	}
}

func keyWithSuffix(i int) string {
	const hex = "0123456789abcdef"
	b := []byte(strings.Repeat("0", 64))
	for j := 0; j < 8 && i > 0; j++ {
		b[63-j] = hex[i&0xf]
		i >>= 4
	}
	return "sim:" + string(b)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
