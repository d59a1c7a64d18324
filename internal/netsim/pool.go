package netsim

import (
	"sync"
	"sync/atomic"
)

// Packet buffer pool: MTU-sized leased buffers handed down the
// send→link→router→deliver pipeline by ownership transfer (SendOwned) so the
// steady-state packet path neither allocates nor copies. The lease discipline
// is documented in docs/dataplane.md: exactly one owner at a time, the owner
// either hands the buffer on (SendOwned, delivery callback) or returns it
// (PutBuf); buffers that escape the discipline are simply garbage-collected —
// the pool is never poisoned by a forgotten release.
//
// Classes are exact capacities: PutBuf only recycles buffers whose cap
// matches a class (GetBuf never reslices capacity), so foreign buffers — a
// Marshal result, a test literal — are silently dropped to the GC rather
// than corrupting class boundaries.

// bufClasses are the pooled buffer capacities, ascending. 1536 is the
// workhorse (Ethernet-ish MTUs, every squic packet); 72k covers the largest
// AS-local datagram (64 KiB payload + SCION header).
var bufClasses = [...]int{256, 1536, 4096, 16384, 73728}

// bufStripes spreads each class over independently-locked free lists so
// concurrent routers don't serialize on one mutex. Must be a power of two.
const bufStripes = 8

// stripeCap bounds each stripe's free list; beyond it, PutBuf drops to the
// GC. Bounds idle pool memory at sum(class·stripes·stripeCap).
const stripeCap = 64

type bufStripe struct {
	mu   sync.Mutex
	free [][]byte
	// Lease counters (see PoolStats), updated under mu, read atomically.
	gets, misses, puts, dropsFull atomic.Uint64
	_                             [64]byte // keep neighboring stripes off one cache line
}

var (
	bufPool [len(bufClasses)][bufStripes]bufStripe
	// getCtr and putCtr pick stripes round-robin, one counter per side: on
	// one shared counter, interleaved gets and puts land on different
	// stripes, so some stripes fill and drop their puts while others run
	// empty and miss.
	getCtr, putCtr atomic.Uint32
	// dropsForeign counts PutBuf calls whose buffer has no class capacity.
	dropsForeign atomic.Uint64
)

// PoolStats counts buffer pool traffic since the process started. Every
// lease taken from a class is eventually put back unless it leaked, so with
// no buffers in flight Gets == Puts; Misses are Gets that found their stripe
// empty and allocated, and in a steady state they come from DropsFull, the
// Puts dropped to the GC because their stripe was full.
type PoolStats struct {
	Gets         uint64 // GetBuf calls for a class size (larger ones are plain allocations)
	Misses       uint64 // Gets that allocated a new buffer
	Puts         uint64 // PutBuf calls with a class-capacity buffer
	DropsFull    uint64 // Puts dropped because the stripe held stripeCap buffers
	DropsForeign uint64 // PutBuf calls with a buffer of no class capacity
}

// ReadPoolStats sums the pool's counters over all classes and stripes.
func ReadPoolStats() PoolStats {
	st := PoolStats{DropsForeign: dropsForeign.Load()}
	for ci := range bufPool {
		for si := range bufPool[ci] {
			s := &bufPool[ci][si]
			st.Gets += s.gets.Load()
			st.Misses += s.misses.Load()
			st.Puts += s.puts.Load()
			st.DropsFull += s.dropsFull.Load()
		}
	}
	return st
}

// GetBuf leases a buffer of length n from the pool (capacity is the smallest
// class that fits; requests beyond the largest class fall back to a plain
// allocation). The caller owns the buffer until it transfers ownership or
// calls PutBuf.
//
//lint:lease source
func GetBuf(n int) []byte {
	ci := -1
	for i, c := range bufClasses {
		if n <= c {
			ci = i
			break
		}
	}
	if ci < 0 {
		return make([]byte, n)
	}
	s := &bufPool[ci][getCtr.Add(1)&(bufStripes-1)]
	s.mu.Lock()
	s.gets.Add(1)
	if k := len(s.free); k > 0 {
		b := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		s.mu.Unlock()
		return b[:n]
	}
	s.misses.Add(1)
	s.mu.Unlock()
	return make([]byte, n, bufClasses[ci])
}

// PutBuf returns a leased buffer to the pool. Buffers whose capacity is not
// exactly a pool class (or whose stripe is full) are dropped to the GC, so
// passing any []byte is safe. The caller must not use the buffer afterwards.
//
//lint:lease sink
func PutBuf(b []byte) {
	c := cap(b)
	ci := -1
	for i, cl := range bufClasses {
		if c == cl {
			ci = i
			break
		}
	}
	if ci < 0 {
		dropsForeign.Add(1)
		//lint:allow-lease non-class buffers are dropped to the GC; that is their release
		return
	}
	s := &bufPool[ci][putCtr.Add(1)&(bufStripes-1)]
	s.mu.Lock()
	s.puts.Add(1)
	if len(s.free) < stripeCap {
		s.free = append(s.free, b[:0])
	} else {
		s.dropsFull.Add(1)
	}
	s.mu.Unlock()
}
