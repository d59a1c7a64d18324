package dataplane

import (
	"bytes"
	"hash/maphash"
	"sync"
	"time"

	"tango/internal/addr"
)

// macCache memoizes per-hop validation verdicts so steady-state flows skip
// the keyed HMAC entirely. The key is the hop's raw wire bytes (the exact
// span currHopSpan returns, covering identity, interfaces, every auth field
// and MAC) mixed with the ingress interface the packet arrived on — the full
// input of Router.validateHop. Only PASS verdicts are cached: a hit means
// bit-identical hop bytes arrived on the same interface and passed every
// check, so re-running the HMAC can only produce the same answer until the
// earliest auth-field expiry, which is stored and enforced on lookup.
// Entries whose expiry has passed are dropped on sight, sending the packet
// back through the full validation (which then counts it as Expired).
//
// The map is sharded with per-shard mutexes (PR-7 idiom) and bounded:
// distinct (hop bytes, ingress) pairs are one per flow direction per path,
// so the steady-state working set is tiny; overflow evicts arbitrarily.
type macCache struct {
	shards [macCacheShards]macShard
}

const (
	macCacheShards = 16 // power of two, indexed by low key bits
	macShardCap    = 512
)

type macShard struct {
	mu sync.Mutex
	m  map[uint64]macEntry
	_  [24]byte // keep neighboring shard locks off one cache line
}

type macEntry struct {
	raw    []byte // defensive copy of the hop wire bytes, compared on hit
	in     addr.IfID
	expiry time.Time // earliest auth-field ExpTime; verdict invalid after
}

// macSeed seeds every key hash of the process. A key only picks a shard and
// a slot: a hit still compares the hop bytes and the ingress, so no verdict
// depends on the seed, and a flood of crafted hops cannot aim at one shard.
var macSeed = maphash.MakeSeed()

// macKey is one seeded hash of the hop's wire bytes, mixed with the ingress
// interface by a multiply with the 64-bit golden ratio.
func macKey(raw []byte, in addr.IfID) uint64 {
	return maphash.Bytes(macSeed, raw) ^ uint64(in)*0x9e3779b97f4a7c15
}

// lookup reports whether a still-valid PASS verdict exists for exactly these
// hop bytes on this ingress. Expired entries are deleted.
func (c *macCache) lookup(key uint64, raw []byte, in addr.IfID, now time.Time) bool {
	s := &c.shards[key&(macCacheShards-1)]
	s.mu.Lock()
	e, ok := s.m[key]
	if ok && !now.Before(e.expiry) {
		delete(s.m, key)
		ok = false
	}
	hit := ok && e.in == in && bytes.Equal(e.raw, raw)
	s.mu.Unlock()
	return hit
}

// store records a PASS verdict valid until expiry. raw is copied.
func (c *macCache) store(key uint64, raw []byte, in addr.IfID, expiry time.Time) {
	s := &c.shards[key&(macCacheShards-1)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]macEntry)
	}
	if _, exists := s.m[key]; !exists && len(s.m) >= macShardCap {
		for k := range s.m { // evict an arbitrary entry to stay bounded
			delete(s.m, k)
			break
		}
	}
	s.m[key] = macEntry{raw: append([]byte(nil), raw...), in: in, expiry: expiry}
	s.mu.Unlock()
}

// reset drops every cached verdict.
func (c *macCache) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}
