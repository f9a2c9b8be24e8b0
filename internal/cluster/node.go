package cluster

import (
	"bytes"
	"cmp"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Protocol headers. SecretHeader authenticates /internal/* traffic;
// ForwardedHeader marks a request already forwarded once so the receiver
// never re-forwards (no routing loops even when ring views disagree
// during a membership change). RequestIDHeader carries the request id on
// every request the service answers and on every intra-fleet request —
// forwards, peer-cache operations, probes, stats and trace lookups — so
// one id names the whole distributed execution; ParentSpanHeader names
// the span on the forwarding replica that the remote execution nests
// under, and HopHeader counts fleet hops.
const (
	SecretHeader     = "X-Cluster-Secret"
	ForwardedHeader  = "X-Cluster-Forwarded"
	RequestIDHeader  = "X-Request-Id"
	ParentSpanHeader = "X-Parent-Span"
	HopHeader        = "X-Cluster-Hop"
)

// MaxEntryBytes bounds one cache entry on the peer-cache protocol, both
// fetched and pushed (flow artifacts with embedded SQD files are the
// largest class; 8 MiB is far above any observed artifact).
const MaxEntryBytes = 8 << 20

// NewHopID mints a short random id for intra-fleet operations that have
// no originating HTTP request — liveness probes, background pushes — so
// their log lines are still correlatable end to end.
func NewHopID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "hop-unknown"
	}
	return hex.EncodeToString(b[:])
}

// Config describes this replica's place in the fleet.
//
// Transport security: all intra-fleet traffic — probes, peer-cache
// operations, forwarded requests — is plaintext HTTP. The shared secret
// authenticates peers; it does not encrypt anything, and it crosses the
// wire in a header on every internal request. Fleets must therefore run
// on a trusted network segment (one host, or a private LAN/VPC with the
// internal ports firewalled); do not span untrusted networks without an
// encrypting tunnel (VPN, mesh sidecar) in between.
type Config struct {
	// Self is this replica's advertised address (host:port) — the address
	// peers use to reach it. Required.
	Self string
	// Peers are the other replicas' advertised addresses. The member set
	// is static (Self + Peers); only liveness is dynamic.
	Peers []string
	// Secret guards the peer-cache protocol. When set, every internal
	// request must carry it in SecretHeader; when empty, peers must be
	// loopback (single-host development fleets).
	Secret string
	// Replicas is the virtual-node count per member (default 128).
	Replicas int
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 500ms).
	ProbeTimeout time.Duration
	// PeerTimeout bounds one peer-cache operation (default 500ms).
	PeerTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a peer
	// dead (default 2). One success marks it alive again.
	FailThreshold int
	// Tracer receives cluster metrics (nil-safe).
	Tracer *obs.Tracer
	// Logger receives membership-transition logs (nil disables).
	Logger *slog.Logger
}

// MemberStatus is a serializable liveness snapshot of one member.
type MemberStatus struct {
	Addr         string `json:"addr"`
	Self         bool   `json:"self,omitempty"`
	Alive        bool   `json:"alive"`
	ConsecFails  int    `json:"consecutive_failures,omitempty"`
	LastProbeAgo string `json:"last_probe_ago,omitempty"`
}

// Snapshot is the cluster section of /healthz.
type Snapshot struct {
	Self        string         `json:"self"`
	RingMembers int            `json:"ring_members"`
	Members     []MemberStatus `json:"members"`
}

type member struct {
	addr        string
	alive       bool
	consecFails int
	lastProbe   time.Time
}

// Node is one replica's view of the fleet: the static member set with
// probed liveness, the live consistent-hash ring derived from it, and the
// client side of the fleet protocol. Every intra-fleet request — probes,
// peer-cache operations, forwards, stats and trace lookups — is built by
// send and goes out through the node's one HTTP client.
type Node struct {
	cfg    Config
	client *http.Client

	mu      sync.RWMutex
	self    *member
	peers   []*member // excludes self
	ring    *Ring
	stopped bool

	stop chan struct{}
	wg   sync.WaitGroup

	log      *slog.Logger
	tr       *obs.Tracer
	probeErr *obs.Counter
}

// NewNode validates the config and builds the node with every configured
// peer initially presumed alive (the first probe round corrects this
// within ProbeInterval; presuming alive avoids a cold start where every
// replica solves everything locally until probes converge).
func NewNode(cfg Config) (*Node, error) {
	cfg.Self = normalizeAddr(cfg.Self)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: self address is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	n := &Node{
		cfg: cfg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		self:     &member{addr: cfg.Self, alive: true},
		stop:     make(chan struct{}),
		log:      cmp.Or(cfg.Logger, obs.Discard),
		tr:       cfg.Tracer,
		probeErr: cfg.Tracer.Counter("cluster/probe_failures_total"),
	}
	seen := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		p = normalizeAddr(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		n.peers = append(n.peers, &member{addr: p, alive: true})
	}
	n.rebuildLocked()
	return n, nil
}

// normalizeAddr strips an http:// prefix and surrounding space so peer
// lists can be written either way.
func normalizeAddr(a string) string {
	a = strings.TrimSpace(a)
	a = strings.TrimPrefix(a, "http://")
	return strings.TrimSuffix(a, "/")
}

// Self returns this replica's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Config returns the node's configuration with its defaults applied.
func (n *Node) Config() Config { return n.cfg }

// AuthorizeInternal is the guard behind every /internal/* route: with a
// secret configured the request must present it (constant-time compare);
// without one, only loopback peers are trusted.
func AuthorizeInternal(r *http.Request, secret string) bool {
	if secret != "" {
		got := r.Header.Get(SecretHeader)
		return len(got) == len(secret) &&
			subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	host = strings.Trim(host, "[]")
	return host == "127.0.0.1" || host == "::1" || host == "localhost"
}

// Start begins the background health-probe loop. It is called once, by
// service.New; a second call would start a second loop. Pair with Stop.
func (n *Node) Start() {
	if len(n.peers) == 0 {
		return // single-member fleet: nothing to probe
	}
	n.wg.Add(1)
	go n.probeLoop()
}

// Stop terminates the probe loop and waits for it.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
}

func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	n.probeAll() // converge immediately at startup, not after one period
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.probeAll()
		}
	}
}

// probeAll probes every peer once and rebuilds the ring if liveness
// changed. Probes run sequentially; fleets are small and the per-probe
// timeout bounds the round.
func (n *Node) probeAll() {
	changed := false
	for _, p := range n.peers {
		ctx, probeID := withHopID(context.Background(), "probe-")
		ok := n.probe(ctx, p.addr)
		n.mu.Lock()
		p.lastProbe = time.Now()
		if ok {
			p.consecFails = 0
			if !p.alive {
				p.alive = true
				changed = true
				n.log.Info("cluster_peer_up",
					"peer", p.addr,
					"probe_id", probeID)
			}
		} else {
			p.consecFails++
			n.probeErr.Inc()
			n.log.Debug("cluster_probe_failed",
				"peer", p.addr,
				"probe_id", probeID,
				"consecutive_failures", p.consecFails)
			if p.alive && p.consecFails >= n.cfg.FailThreshold {
				p.alive = false
				changed = true
				n.log.Warn("cluster_peer_down",
					"peer", p.addr,
					"probe_id", probeID,
					"consecutive_failures", p.consecFails)
			}
		}
		n.mu.Unlock()
	}
	if changed {
		n.mu.Lock()
		n.rebuildLocked()
		n.mu.Unlock()
	}
	n.publish()
}

// probe reports whether the peer answers /healthz with 200. A draining
// replica answers 503 and is treated as down — no new work should be
// routed to it. The probe id in ctx rides the request-id header so both
// ends log the same id for one probe round trip.
func (n *Node) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ProbeTimeout)
	defer cancel()
	resp, err := n.send(ctx, http.MethodGet, addr, "/healthz", nil, nil)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// rebuildLocked rebuilds the live ring from self plus alive peers.
// Caller holds n.mu.
func (n *Node) rebuildLocked() {
	members := []string{n.self.addr}
	for _, p := range n.peers {
		if p.alive {
			members = append(members, p.addr)
		}
	}
	n.ring = NewRing(members, n.cfg.Replicas)
}

// publish refreshes the per-peer liveness gauges.
func (n *Node) publish() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, p := range n.peers {
		v := 0.0
		if p.alive {
			v = 1.0
		}
		n.tr.Gauge(obs.Labeled("cluster/peer_up", "peer", p.addr)).Set(v)
	}
	n.tr.Gauge("cluster/ring_members").Set(float64(n.ring.Size()))
}

// Owner returns the live owner of key and whether it is this replica.
func (n *Node) Owner(key string) (addr string, self bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	o := n.ring.Owner(key)
	return o, o == n.self.addr
}

// owners returns up to count distinct live members in ring order from the
// key's owner (see Ring.Owners).
func (n *Node) owners(key string, count int) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring.Owners(key, count)
}

// alive reports the probed liveness of a member address (self is always
// alive; unknown addresses are dead).
func (n *Node) alive(addr string) bool {
	if addr == n.cfg.Self {
		return true
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, p := range n.peers {
		if p.addr == addr {
			return p.alive
		}
	}
	return false
}

// Status snapshots membership for /healthz.
func (n *Node) Status() Snapshot {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := Snapshot{Self: n.cfg.Self, RingMembers: n.ring.Size()}
	s.Members = append(s.Members, MemberStatus{Addr: n.self.addr, Self: true, Alive: true})
	for _, p := range n.peers {
		ms := MemberStatus{Addr: p.addr, Alive: p.alive, ConsecFails: p.consecFails}
		if !p.lastProbe.IsZero() {
			ms.LastProbeAgo = time.Since(p.lastProbe).Round(time.Millisecond).String()
		}
		s.Members = append(s.Members, ms)
	}
	return s
}

// ---- the fleet protocol's client side ----

// withHopID returns ctx with a minted prefix-id request id when it
// carries none, and the request id it carries after that.
func withHopID(ctx context.Context, prefix string) (context.Context, string) {
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		return ctx, rid
	}
	rid := prefix + NewHopID()
	return obs.ContextWithRequestID(ctx, rid), rid
}

// send builds and sends one intra-fleet request to path on addr through
// the node's client. It sets the caller's headers, the request id ctx
// carries, and — on /internal/* paths only — the shared secret.
func (n *Node) send(ctx context.Context, method, addr, path string, body io.Reader, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, body)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		req.Header.Set(RequestIDHeader, rid)
	}
	if n.cfg.Secret != "" && strings.HasPrefix(path, "/internal/") {
		req.Header.Set(SecretHeader, n.cfg.Secret)
	}
	return n.client.Do(req)
}

// Forward posts body to path on addr, the owner of the request's key,
// with the caller's forwarding headers, bounded by ctx.
func (n *Node) Forward(ctx context.Context, addr, path string, body []byte, hdr http.Header) (*http.Response, error) {
	return n.send(ctx, http.MethodPost, addr, path, bytes.NewReader(body), hdr)
}

// GetJSON fetches path from addr and decodes the 200 answer, read up to
// limit bytes, into v; any other status is an error. It sets no deadline
// of its own: ctx bounds the lookup.
func (n *Node) GetJSON(ctx context.Context, addr, path string, limit int64, v any) error {
	resp, err := n.send(ctx, http.MethodGet, addr, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("cluster: GET %s%s: status %d", addr, path, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(v); err != nil {
		return fmt.Errorf("cluster: GET %s%s: %w", addr, path, err)
	}
	return nil
}

// The node is the peer tier of the service's cache stack, wrapped in the
// same resilient breaker that guards the disk.
var _ cache.Layer = (*Node)(nil)

// Get fetches key from its owner replica(s): up to two ring owners (the
// owner, then its successor — the member that covered the key while the
// owner was down), skipping this replica and peers probed dead. A clean
// miss on one owner falls through to the next; a transport error is
// returned so the breaker above sees it. The caller's context carries the
// request id across the wire; each owner attempt is still bounded by
// PeerTimeout on top of any caller deadline.
func (n *Node) Get(ctx context.Context, key cache.Key) ([]byte, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var firstErr error
	for _, o := range n.owners(string(key), 2) {
		if o == n.cfg.Self || !n.alive(o) {
			continue
		}
		opCtx, cancel := context.WithTimeout(ctx, n.cfg.PeerTimeout)
		b, ok, err := n.cacheGet(opCtx, o, key)
		cancel()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			return b, true, nil
		}
	}
	return nil, false, firstErr
}

// Put pushes key's bytes to the first live owner that is not this
// replica. When this replica comes first it is a no-op: the local layers
// already hold the entry, and peers fetch it from here on demand.
func (n *Node) Put(ctx context.Context, key cache.Key, val []byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, o := range n.owners(string(key), 2) {
		if o == n.cfg.Self {
			return nil // we own it; peers fetch from us
		}
		if !n.alive(o) {
			continue
		}
		opCtx, cancel := context.WithTimeout(ctx, n.cfg.PeerTimeout)
		err := n.cachePut(opCtx, o, key, val)
		cancel()
		return err
	}
	return nil
}

// countPeerOp tags the outcome of one peer-cache operation for metrics.
func (n *Node) countPeerOp(op, outcome string) {
	n.tr.Counter(obs.Labeled("cluster/peer_requests_total", "op", op, "outcome", outcome)).Inc()
}

// cacheGet fetches the raw cache entry for key from addr's
// /internal/cache endpoint. A 404 is a clean miss; transport failures,
// unexpected statuses and entries over MaxEntryBytes are errors (the
// resilient layer above retries them and trips its breaker).
func (n *Node) cacheGet(ctx context.Context, addr string, key cache.Key) ([]byte, bool, error) {
	ctx, rid := withHopID(ctx, "peer-")
	resp, err := n.send(ctx, http.MethodGet, addr, "/internal/cache/"+string(key), nil, nil)
	if err != nil {
		n.peerOpFailed("get", addr, rid, err)
		return nil, false, fmt.Errorf("cluster: peer get %s: %w", addr, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, MaxEntryBytes+1))
		if err == nil && len(b) > MaxEntryBytes {
			err = fmt.Errorf("entry exceeds %d bytes", MaxEntryBytes)
		}
		if err != nil {
			n.peerOpFailed("get", addr, rid, err)
			return nil, false, fmt.Errorf("cluster: peer get %s: %w", addr, err)
		}
		n.countPeerOp("get", "hit")
		return b, true, nil
	case http.StatusNotFound:
		n.countPeerOp("get", "miss")
		return nil, false, nil
	default:
		n.peerOpFailed("get", addr, rid, fmt.Errorf("status %d", resp.StatusCode))
		return nil, false, fmt.Errorf("cluster: peer get %s: status %d", addr, resp.StatusCode)
	}
}

// cachePut pushes a cache entry to addr.
func (n *Node) cachePut(ctx context.Context, addr string, key cache.Key, val []byte) error {
	ctx, rid := withHopID(ctx, "peer-")
	resp, err := n.send(ctx, http.MethodPut, addr, "/internal/cache/"+string(key), bytes.NewReader(val),
		http.Header{"Content-Type": {"application/octet-stream"}})
	if err != nil {
		n.peerOpFailed("put", addr, rid, err)
		return fmt.Errorf("cluster: peer put %s: %w", addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		n.peerOpFailed("put", addr, rid, fmt.Errorf("status %d", resp.StatusCode))
		return fmt.Errorf("cluster: peer put %s: status %d", addr, resp.StatusCode)
	}
	n.countPeerOp("put", "ok")
	return nil
}

// peerOpFailed counts and logs one failed peer-cache operation with the
// request id that triggered it, so cluster_peer_requests_total errors are
// correlatable with request logs on both replicas.
func (n *Node) peerOpFailed(op, addr, rid string, err error) {
	n.countPeerOp(op, "error")
	n.log.Warn("cluster_peer_"+op+"_failed",
		"peer", addr,
		"request_id", rid,
		"error", err)
}
