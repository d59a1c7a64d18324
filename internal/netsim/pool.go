package netsim

import (
	"slices"
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
// AS-local datagram (64 KiB payload + SCION header). squic's send blocks up
// to 16 KiB are leases of these classes too (256 to 16384: net/http's 4 KiB
// flushes take the 4096 class), held until their bytes are acked; larger
// send blocks come from the block pool below.
var bufClasses = [...]int{256, 1536, 4096, 16384, 73728}

// poolCap bounds each class's free list; beyond it, PutBuf drops to the GC.
// Bounds idle pool memory at sum(class·poolCap).
const poolCap = 512

// bufClass is one class's free list, used last in, first out, so a
// single-threaded get takes the buffer the last put returned.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
	// Lease counters (see PoolStats), guarded by mu.
	gets, misses, puts, dropsFull uint64
}

var (
	bufPool [len(bufClasses)]bufClass
	// dropsForeign counts PutBuf calls whose buffer has no class capacity.
	dropsForeign atomic.Uint64
)

// PoolStats counts buffer pool traffic since the process started. Every
// lease taken from a class is eventually put back unless it leaked, so with
// no buffers in flight Gets == Puts; Misses are Gets that found their class
// empty and allocated, and in a steady state they come from DropsFull, the
// Puts dropped to the GC because their class was full.
type PoolStats struct {
	Gets         uint64 // GetBuf calls for a class size (larger ones are plain allocations)
	Misses       uint64 // Gets that allocated a new buffer
	Puts         uint64 // PutBuf calls with a class-capacity buffer
	DropsFull    uint64 // Puts dropped because the class held poolCap buffers
	DropsForeign uint64 // PutBuf calls with a buffer of no class capacity
}

// ReadPoolStats sums the pool's counters over all classes.
func ReadPoolStats() PoolStats {
	st := PoolStats{DropsForeign: dropsForeign.Load()}
	for ci := range bufPool {
		c := &bufPool[ci]
		c.mu.Lock()
		st.Gets += c.gets
		st.Misses += c.misses
		st.Puts += c.puts
		st.DropsFull += c.dropsFull
		c.mu.Unlock()
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
	ci, _ := slices.BinarySearch(bufClasses[:], n) // the smallest class >= n
	if ci == len(bufClasses) {
		return make([]byte, n)
	}
	c := &bufPool[ci]
	c.mu.Lock()
	c.gets++
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.mu.Unlock()
		return b[:n]
	}
	c.misses++
	c.mu.Unlock()
	return make([]byte, n, bufClasses[ci])
}

// PutBuf returns a leased buffer to the pool. Buffers whose capacity is not
// exactly a pool class (or whose class is full) are dropped to the GC, so
// passing any []byte is safe. The caller must not use the buffer afterwards.
//
//lint:lease sink
func PutBuf(b []byte) {
	ci, ok := slices.BinarySearch(bufClasses[:], cap(b))
	if !ok {
		dropsForeign.Add(1)
		//lint:allow-lease non-class buffers are dropped to the GC; that is their release
		return
	}
	c := &bufPool[ci]
	c.mu.Lock()
	c.puts++
	if len(c.free) < poolCap {
		c.free = append(c.free, b[:0])
	} else {
		c.dropsFull++
	}
	c.mu.Unlock()
}

// BlockSize is the size of a pooled block: io.Copy's buffer size, and the
// largest squic send-buffer block.
const BlockSize = 32 << 10

// Block is a pooled block's array.
type Block = [BlockSize]byte

// blocks is the one pool of BlockSize buffers: HTTP body relay buffers and
// full-size squic send blocks. It holds array pointers, so Get and Put move
// a pointer. A sync.Pool and not a GetBuf class: the pool empties across
// GCs, so blocks do not outlive the traffic that needed them, and 32 KiB
// would round up to GetBuf's 72 KiB class.
var blocks = sync.Pool{New: func() any { return new(Block) }}

// GetBlock takes a block from the pool. Its bytes are whatever its last
// user left there.
func GetBlock() *Block { return blocks.Get().(*Block) }

// PutBlock returns a block to the pool. The caller must not use it
// afterwards, through any slice of it either.
func PutBlock(b *Block) { blocks.Put(b) }
