package cache

import "context"

// Source values reported by Tiers.Do: the tier that served a value, a
// cold computation that is now cached, or one that was not cacheable.
const (
	SourceMem    = "mem"
	SourceDisk   = "disk"
	SourceMiss   = "miss"
	SourceBypass = "bypass"
)

// Tiers is the result cache as one stack, fastest first: the in-memory
// LRU and an optional persistent disk layer. Every cached result kind
// (flow artifacts, ground states, gate validations) goes through the same
// walk, so every kind survives a restart on the disk tier.
type Tiers struct {
	Mem *LRU
	// Disk is nil when the persistent layer is disabled; the service
	// installs a Resilient wrapper here so transient I/O errors are retried
	// and repeated failures degrade to memory-only caching.
	Disk Layer
}

// tier is one named level of the walk.
type tier struct {
	source string
	Layer
}

// memLayer adapts the LRU to the Layer interface.
type memLayer struct{ lru *LRU }

func (m memLayer) Get(_ context.Context, key Key) ([]byte, bool, error) {
	b, ok := m.lru.Get(key)
	return b, ok, nil
}

func (m memLayer) Put(_ context.Context, key Key, val []byte) error {
	m.lru.Put(key, val)
	return nil
}

// stack lists the configured tiers, fastest first.
func (t *Tiers) stack() []tier {
	s := []tier{{SourceMem, memLayer{t.Mem}}}
	if t.Disk != nil {
		s = append(s, tier{SourceDisk, t.Disk})
	}
	return s
}

// Do serves key from the fastest tier holding an entry that use accepts,
// or computes it. use turns an entry into the caller's result and is told
// which tier (a Source* value) holds it, so a caller can decode an entry
// once, when it enters the process from disk, and serve a memory entry
// unread; an error (a corrupt or incompatible entry) makes that tier a
// miss. The entry is shared with the tier: read-only. A hit is
// promoted into every faster tier. On a full miss compute runs and its
// entry is written through to every tier; compute returns a nil entry for
// a result that must not be cached (a degraded one), and errors are never
// stored. Tier errors are non-fatal: the Resilient wrapper has already
// retried, so a failing tier reads as a miss and drops its writes.
//
// An empty key bypasses the cache: compute runs and nothing is stored.
func (t *Tiers) Do(ctx context.Context, key Key, use func(source string, entry []byte) error, compute func() ([]byte, error)) (string, error) {
	if key == "" {
		_, err := compute()
		return SourceBypass, err
	}
	stack := t.stack()
	for i, tr := range stack {
		b, ok, err := tr.Get(ctx, key)
		if err != nil || !ok || use(tr.source, b) != nil {
			continue
		}
		for _, faster := range stack[:i] {
			_ = faster.Put(ctx, key, b)
		}
		return tr.source, nil
	}
	b, err := compute()
	if err != nil {
		return SourceMiss, err
	}
	if b == nil {
		return SourceBypass, nil
	}
	for _, tr := range stack {
		_ = tr.Put(ctx, key, b)
	}
	return SourceMiss, nil
}
