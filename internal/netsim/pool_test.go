package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestGetBufClassSelection(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 256},
		{1, 256},
		{256, 256},
		{257, 1536},
		{1400, 1536},
		{1536, 1536},
		{4096, 4096},
		{16384, 16384},
		{73728, 73728},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("GetBuf(%d) = len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		PutBuf(b)
	}
	// Beyond the largest class: plain allocation, exact size.
	//lint:allow-lease oversize buffers are plain allocations; the GC reclaims them
	if b := GetBuf(100000); len(b) != 100000 || cap(b) != 100000 {
		t.Errorf("oversize GetBuf = len %d cap %d", len(b), cap(b))
	}
}

func TestPutBufGetBufReuses(t *testing.T) {
	// Contents survive a put/get cycle (the pool never zeroes), so a sentinel
	// byte proves reuse.
	const n = 16
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = GetBuf(1400)
		bufs[i][0] = 0xAB
	}
	for _, b := range bufs {
		PutBuf(b)
	}
	reused := 0
	for i := 0; i < n; i++ {
		//lint:allow-lease reuse counting deliberately keeps the gets
		if b := GetBuf(1400); b[0] == 0xAB {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("none of %d gets after %d puts reused a buffer", n, n)
	}
}

func TestPutBufDropsForeignCapacities(t *testing.T) {
	// A buffer whose capacity is not exactly a pool class must never come
	// back out of GetBuf — foreign buffers (Marshal results, test literals)
	// fall to the GC instead of corrupting class boundaries.
	PutBuf(make([]byte, 0, 2000))
	for i := 0; i < 32; i++ {
		b := GetBuf(1700) // 1700 maps to the 4096 class; 2000 fits but is foreign
		if cap(b) == 2000 {
			t.Fatal("foreign-capacity buffer leaked back out of the pool")
		}
		PutBuf(b)
	}
}

func TestPoolConcurrentHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{64, 1400, 3000, 20000}
			for i := 0; i < 500; i++ {
				b := GetBuf(sizes[(g+i)%len(sizes)])
				b[0] = byte(i)
				PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestSendOwnedDeliversSameBuffer(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: time.Millisecond}, 1)
	var got []byte
	l.Attach(1, func(p []byte) bool { got = p; return true })
	buf := GetBuf(5)
	copy(buf, "hello")
	if !l.SendOwned(0, buf) {
		t.Fatal("send rejected")
	}
	c.Advance(time.Millisecond)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	// Zero-copy: the receiver sees the very bytes the sender leased.
	//lint:allow-lease zero-copy assertion inspects the transferred bytes
	if &got[0] != &buf[0] {
		t.Fatal("SendOwned copied the buffer")
	}
	PutBuf(got)
}

func TestSendOwnedReleasesDroppedPackets(t *testing.T) {
	c := NewSimClock(epoch)
	// No receiver attached: every send is dropped at the link, and the
	// ownership contract says the link must return the buffer to the pool.
	l := NewLink(c, LinkProps{}, 1)
	marked := make([][]byte, 16)
	for i := range marked {
		marked[i] = GetBuf(50)
		marked[i][1] = 0xCD
	}
	for _, b := range marked {
		if l.SendOwned(0, b) {
			t.Fatal("send accepted with no receiver")
		}
	}
	// As many gets must surface at least one of the marked buffers — proof
	// the drops went back to the pool rather than leaking.
	recovered := 0
	for i := 0; i < len(marked); i++ {
		//lint:allow-lease reuse counting deliberately keeps the gets
		if b := GetBuf(50); b[1] == 0xCD {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("dropped packets never returned to the buffer pool")
	}
	// MTU drops follow the same contract.
	l.Attach(1, func([]byte) bool { t.Fatal("oversize packet delivered"); return true })
	l.SetProps(LinkProps{MTU: 100})
	if l.SendOwned(0, GetBuf(200)) {
		t.Fatal("send accepted past MTU")
	}
	c.Advance(time.Second)
}

// TestPoolStatsCounts: each lease call lands in exactly one counter, and a
// full class's drop is counted against the put that caused it.
func TestPoolStatsCounts(t *testing.T) {
	before := ReadPoolStats()
	b := GetBuf(100)
	PutBuf(b)
	PutBuf(make([]byte, 10)) // no class capacity
	//lint:allow-lease oversize buffers are plain allocations; the GC reclaims them
	GetBuf(1 << 20) // beyond the largest class: not a pool get
	d := ReadPoolStats()
	if d.Gets-before.Gets != 1 || d.Puts-before.Puts != 1 || d.DropsForeign-before.DropsForeign != 1 {
		t.Fatalf("after one get, one put and one foreign put: %+v, before %+v", d, before)
	}

	// Overfill the 16 KiB class: the pool keeps poolCap buffers and drops
	// the rest.
	const n = poolCap + 24
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = GetBuf(10000)
	}
	before = ReadPoolStats()
	for _, b := range bufs {
		PutBuf(b)
	}
	d = ReadPoolStats()
	if got := d.DropsFull - before.DropsFull; got < 24 {
		t.Fatalf("the overfilled class dropped %d buffers, want at least %d", got, 24)
	}
	before = ReadPoolStats()
	for i := 0; i < poolCap; i++ {
		bufs[i] = GetBuf(10000)
	}
	for _, b := range bufs[:poolCap] {
		PutBuf(b)
	}
	if d := ReadPoolStats(); d.Misses != before.Misses {
		t.Fatalf("%d misses draining a full class", d.Misses-before.Misses)
	}
}

// TestGetAfterPutHits: a pool hits as soon as it holds a buffer. Once a
// buffer of a class is put, the next single-threaded get of that class
// takes a pooled buffer, from an emptied class on.
func TestGetAfterPutHits(t *testing.T) {
	const size = 10000 // the 16 KiB class
	held := make([][]byte, poolCap)
	for i := range held {
		held[i] = GetBuf(size) // empties the class, whatever it held
	}
	b := GetBuf(size)
	misses := 0
	for pass := 0; pass < 8; pass++ {
		PutBuf(b)
		before := ReadPoolStats()
		b = GetBuf(size)
		if ReadPoolStats().Misses != before.Misses {
			misses++
		}
	}
	PutBuf(b)
	for _, h := range held {
		PutBuf(h)
	}
	if misses > 0 {
		t.Fatalf("%d of 8 gets right after a put missed", misses)
	}
}
