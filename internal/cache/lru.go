// Package cache provides content-addressed result caching for the
// Bestagon design service: deterministic canonical hashing of simulation,
// validation, and whole-flow inputs (hash.go), a sharded byte-bounded
// in-memory LRU (this file), an optional persistent disk layer (disk.go),
// and the tier stack that walks memory and disk for every cached result
// kind (tiers.go).
//
// Keys are content addresses: two requests hash to the same key iff their
// canonical encodings are identical, independent of insertion order, map
// iteration, or process identity. Values are opaque byte slices; the
// canonical serialization both gives exact byte accounting and guarantees
// byte-identical responses on repeat requests.
package cache

import (
	"container/list"
	"hash/maphash"

	"sync"

	"repro/internal/obs"
)

// Key is a content address: a short domain tag plus the hex SHA-256 of the
// canonical input encoding.
type Key string

// entryOverhead approximates the fixed per-entry bookkeeping cost (list
// element, map slot, headers) charged against the byte budget.
const entryOverhead = 128

// numShards is the fixed shard count of the LRU. Sixteen shards keep lock
// contention negligible for dozens of concurrent workers while the
// per-shard byte budgets stay coarse enough to be meaningful.
const numShards = 16

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// LRU is a sharded, byte-bounded, least-recently-used result store. It is
// safe for concurrent use by many goroutines; each key maps to one shard,
// so unrelated lookups never contend on a lock.
type LRU struct {
	shards   [numShards]lruShard
	maxBytes int64
	seed     maphash.Seed

	hits, misses, puts, evictions obs.Counter

	// Optional tracer mirrors (nil-safe no-ops when not instrumented).
	trHits, trMisses, trEvictions *obs.Counter
	trBytes, trEntries            *obs.Gauge
}

type lruShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	idx   map[Key]*list.Element
	bytes int64
}

type lruEntry struct {
	key Key
	val []byte
}

// NewLRU builds an LRU bounded to roughly maxBytes of stored values (keys
// and fixed overhead included). A non-positive bound defaults to 64 MiB.
func NewLRU(maxBytes int64) *LRU {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &LRU{maxBytes: maxBytes, seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].idx = make(map[Key]*list.Element)
	}
	return c
}

// Instrument mirrors the cache's hit/miss/eviction counters and size
// gauges onto the tracer under the given metric-name prefix (for example
// "cache/mem"). Safe to call once before concurrent use.
func (c *LRU) Instrument(tr *obs.Tracer, prefix string) {
	c.trHits = tr.Counter(prefix + "/hits")
	c.trMisses = tr.Counter(prefix + "/misses")
	c.trEvictions = tr.Counter(prefix + "/evictions")
	c.trBytes = tr.Gauge(prefix + "/bytes")
	c.trEntries = tr.Gauge(prefix + "/entries")
}

func (c *LRU) shardFor(key Key) *lruShard {
	return &c.shards[maphash.String(c.seed, string(key))%numShards]
}

// Get returns the cached value for the key. The returned slice is shared —
// callers must treat it as read-only.
func (c *LRU) Get(key Key) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.idx[key]
	var val []byte
	if ok {
		s.ll.MoveToFront(el)
		val = el.Value.(*lruEntry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Inc()
		c.trMisses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.trHits.Inc()
	return val, true
}

// Put stores a copy of val under key, evicting least-recently-used entries
// of the same shard until the shard fits its byte budget. Values larger
// than a whole shard's budget are not stored.
func (c *LRU) Put(key Key, val []byte) {
	cost := int64(len(key)) + int64(len(val)) + entryOverhead
	budget := c.maxBytes / numShards
	if cost > budget {
		return
	}
	stored := append([]byte(nil), val...)
	s := c.shardFor(key)
	var evicted int64
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		ent := el.Value.(*lruEntry)
		s.bytes += int64(len(stored)) - int64(len(ent.val))
		ent.val = stored
		s.ll.MoveToFront(el)
	} else {
		s.idx[key] = s.ll.PushFront(&lruEntry{key: key, val: stored})
		s.bytes += cost
	}
	for s.bytes > budget {
		back := s.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*lruEntry)
		s.ll.Remove(back)
		delete(s.idx, ent.key)
		s.bytes -= int64(len(ent.key)) + int64(len(ent.val)) + entryOverhead
		evicted++
	}
	s.mu.Unlock()
	c.puts.Inc()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.trEvictions.Add(evicted)
	}
	c.publishSize()
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.idx)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters and current size.
func (c *LRU) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Puts:      c.puts.Value(),
		Evictions: c.evictions.Value(),
		MaxBytes:  c.maxBytes,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.idx))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// publishSize refreshes the instrumented size gauges (cheap when not
// instrumented: nil gauges are no-ops).
func (c *LRU) publishSize() {
	if c.trBytes == nil && c.trEntries == nil {
		return
	}
	var bytes, entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		bytes += s.bytes
		entries += int64(len(s.idx))
		s.mu.Unlock()
	}
	c.trBytes.Set(float64(bytes))
	c.trEntries.Set(float64(entries))
}
