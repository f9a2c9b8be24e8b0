package cluster

import (
	"cmp"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
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

// Protocol headers. SecretHeader authenticates peer-cache and internal
// traffic; ForwardedHeader marks a request already forwarded once so the
// receiver never re-forwards (no routing loops even when ring views
// disagree during a membership change). RequestIDHeader carries the
// originating request id on every intra-fleet hop — forwards, peer-cache
// operations, probes — so one id names the whole distributed execution;
// ParentSpanHeader names the span on the forwarding replica that the
// remote execution nests under, and HopHeader counts fleet hops.
const (
	SecretHeader     = "X-Cluster-Secret"
	ForwardedHeader  = "X-Cluster-Forwarded"
	RequestIDHeader  = "X-Request-Id"
	ParentSpanHeader = "X-Parent-Span"
	HopHeader        = "X-Cluster-Hop"
)

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
// HTTP client used for probes, peer-cache operations, and forwarding.
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

// Secret returns the shared cluster secret ("" when unset).
func (n *Node) Secret() string { return n.cfg.Secret }

// AuthorizeInternal is the guard behind /internal/cache: with a secret
// configured the request must present it (constant-time compare); without
// one, only loopback peers are trusted.
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

// Start begins the background health-probe loop. Idempotent per node;
// pair with Stop.
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
		probeID := "probe-" + NewHopID()
		ok := n.probe(p.addr, probeID)
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
// routed to it. The probe id rides the request-id header so both ends
// log the same id for one probe round trip.
func (n *Node) probe(addr, probeID string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	req.Header.Set(RequestIDHeader, probeID)
	resp, err := n.client.Do(req)
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

// Owners returns up to count distinct live members in ring order from the
// key's owner (see Ring.Owners).
func (n *Node) Owners(key string, count int) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring.Owners(key, count)
}

// Alive reports the probed liveness of a member address (self is always
// alive; unknown addresses are dead).
func (n *Node) Alive(addr string) bool {
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

// Client returns the shared intra-fleet HTTP client (probes, peer-cache
// operations, and request forwarding all pool connections through it).
func (n *Node) Client() *http.Client { return n.client }

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

// ---- peer-cache protocol client ----

// peerOp tags the outcome of one peer-cache operation for metrics.
func (n *Node) countPeerOp(op, outcome string) {
	n.tr.Counter(obs.Labeled("cluster/peer_requests_total", "op", op, "outcome", outcome)).Inc()
}

// CacheGet fetches the raw cache entry for key from addr's
// /internal/cache endpoint. A 404 is a clean miss; transport failures and
// unexpected statuses are errors (the resilient layer above retries them
// and trips its breaker).
func (n *Node) CacheGet(ctx context.Context, addr string, key cache.Key) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/internal/cache/"+string(key), nil)
	if err != nil {
		return nil, false, err
	}
	rid := n.setIdentity(ctx, req)
	resp, err := n.client.Do(req)
	if err != nil {
		n.peerOpFailed("get", addr, rid, err)
		return nil, false, fmt.Errorf("cluster: peer get %s: %w", addr, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes+1))
		if err != nil {
			n.peerOpFailed("get", addr, rid, err)
			return nil, false, fmt.Errorf("cluster: peer get %s: %w", addr, err)
		}
		if len(b) > maxPeerEntryBytes {
			n.peerOpFailed("get", addr, rid, fmt.Errorf("entry exceeds %d bytes", maxPeerEntryBytes))
			return nil, false, fmt.Errorf("cluster: peer get %s: entry exceeds %d bytes", addr, maxPeerEntryBytes)
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

// maxPeerEntryBytes bounds one transferred cache entry (flow artifacts
// with embedded SQD files are the largest class; 8 MiB is far above any
// observed artifact).
const maxPeerEntryBytes = 8 << 20

// CachePut pushes a cache entry to addr.
func (n *Node) CachePut(ctx context.Context, addr string, key cache.Key, val []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		"http://"+addr+"/internal/cache/"+string(key), strings.NewReader(string(val)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	rid := n.setIdentity(ctx, req)
	resp, err := n.client.Do(req)
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

// setIdentity stamps an outgoing internal request with the cluster secret
// and the originating request id (minted fresh when the context carries
// none, so every peer operation is correlatable). Returns the id used.
func (n *Node) setIdentity(ctx context.Context, req *http.Request) string {
	if n.cfg.Secret != "" {
		req.Header.Set(SecretHeader, n.cfg.Secret)
	}
	rid := obs.RequestIDFromContext(ctx)
	if rid == "" {
		rid = "peer-" + NewHopID()
	}
	req.Header.Set(RequestIDHeader, rid)
	return rid
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
