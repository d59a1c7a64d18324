package netsim

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// pendingItem is one packet or timer a reference scheduler expects to fire.
type pendingItem struct {
	at  time.Duration // deadline since epoch
	seq int           // schedule order
	id  int
}

// TestQueuesFireInGlobalDeadlineOrder checks the order argument of the link
// queues: packets on four links with equal latency and bandwidth, mixed with
// app timers due at the same instants (some cancelled, some with zero or
// negative delay), fire in exactly the order of a reference sort of
// everything pending by (deadline, schedule order).
func TestQueuesFireInGlobalDeadlineOrder(t *testing.T) {
	const (
		packets = 10_000
		lat     = time.Millisecond
		bw      = 100_000_000 // a 1250-byte packet takes 100µs
	)
	rng := rand.New(rand.NewSource(1))
	c := NewSimClock(epoch)
	var fired []int
	links := make([]*Link, 4)
	for i := range links {
		links[i] = NewLink(c, LinkProps{Latency: lat, Bandwidth: bw}, int64(i))
		for end := 0; end < 2; end++ {
			links[i].Attach(end, func(p []byte) bool {
				fired = append(fired, int(binary.BigEndian.Uint64(p)))
				PutBuf(p)
				return false
			})
		}
	}
	var (
		now      time.Duration
		pending  []pendingItem
		seq      int
		nextFree [4][2]time.Duration // the reference's transmitters
		timers   = map[int]Timer{}
		sent     int
	)
	sizes := []int{100, 1250}
	delays := []time.Duration{-50 * time.Microsecond, 0, lat, lat + 100*time.Microsecond, lat + 200*time.Microsecond, 2 * lat}
	for sent < packets || len(pending) > 0 {
		for k := rng.Intn(8); k > 0 && sent < packets; k-- {
			li, from, size := rng.Intn(len(links)), rng.Intn(2), sizes[rng.Intn(len(sizes))]
			pkt := make([]byte, size)
			binary.BigEndian.PutUint64(pkt, uint64(sent))
			if !links[li].Send(from, pkt) {
				t.Fatal("send rejected")
			}
			tx := time.Duration(int64(size) * 8 * int64(time.Second) / bw)
			nextFree[li][from] = max(nextFree[li][from], now) + tx
			pending = append(pending, pendingItem{nextFree[li][from] + lat, seq, sent})
			seq++
			sent++
		}
		for k := rng.Intn(3); k > 0; k-- {
			id := -1 - seq
			d := delays[rng.Intn(len(delays))]
			timers[id] = c.AfterFunc(d, func() { fired = append(fired, id) })
			pending = append(pending, pendingItem{now + d, seq, id})
			seq++
		}
		if rng.Intn(4) == 0 && len(pending) > 0 {
			i := rng.Intn(len(pending))
			if it := pending[i]; it.id < 0 {
				if !timers[it.id].Stop() {
					t.Fatalf("cancelling pending timer %d failed", it.id)
				}
				pending = slices.Delete(pending, i, i+1)
			}
		}

		step := time.Duration(rng.Intn(6)) * 50 * time.Microsecond
		if sent == packets {
			step = time.Hour
		}
		now += step
		var want []int
		slices.SortFunc(pending, func(a, b pendingItem) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		for len(pending) > 0 && pending[0].at <= now {
			want = append(want, pending[0].id)
			pending = pending[1:]
		}
		fired = fired[:0]
		c.Advance(step)
		if !slices.Equal(fired, want) {
			t.Fatalf("at +%v fired %v, want %v", now, fired, want)
		}
		if got := c.PendingTimers(); got != len(pending) {
			t.Fatalf("PendingTimers = %d, want %d", got, len(pending))
		}
	}
}

// TestLinkSendAllocatesNothing checks that a packet in flight costs no
// allocation of its own, even right after garbage collections: with 1000
// packets in flight and the heap collected twice, a further 1000 send and
// deliver cycles, in two bursts of 500 sends and 500 deliveries, allocate
// nothing. The count is the fewest of three trials, so that an allocation
// made meanwhile by another goroutine of the test binary cannot fail it.
func TestLinkSendAllocatesNothing(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: time.Millisecond, Bandwidth: 100_000_000}, 1)
	l.Attach(1, func(p []byte) bool { PutBuf(p); return false })
	pkt := make([]byte, 1200)
	send := func(n int) {
		for range n {
			l.Send(0, pkt)
		}
	}
	cycles := func() {
		for range 2 {
			send(500)
			for range 500 {
				c.AdvanceToNext() // one packet per instant
			}
		}
	}
	send(1000)
	cycles() // the queue grows to hold 1500, the buffer pool to 500 spares
	fewest := uint64(math.MaxUint64)
	for range 3 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycles()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 0 {
		t.Fatalf("1000 send+deliver cycles allocated %d times, want 0", fewest)
	}
	if got := c.PendingTimers(); got != 1000 {
		t.Fatalf("PendingTimers = %d, want 1000 in flight", got)
	}
}

// TestLinkLoweredLatencyKeepsFIFO lowers a link's latency while packets are
// in flight: the packets sent afterwards are held behind the ones in
// flight, never delivered before them, and once the backlog has drained
// the new latency applies in full.
func TestLinkLoweredLatencyKeepsFIFO(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: 10 * time.Millisecond}, 1)
	var got []byte
	var at []time.Duration
	l.Attach(1, func(p []byte) bool {
		got = append(got, p[0])
		at = append(at, c.Since(epoch))
		PutBuf(p)
		return true
	})
	for i := range 5 {
		l.Send(0, []byte{byte(i)})
		c.Advance(time.Millisecond)
	}
	l.SetProps(LinkProps{Latency: time.Millisecond})
	for i := 5; i < 10; i++ {
		l.Send(0, []byte{byte(i)})
		c.Advance(time.Millisecond)
	}
	c.Advance(time.Hour)
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("delivered %v, want send order", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10", len(got))
	}
	// The first packet sent at the lower latency is held behind the last
	// one in flight (sent at +4ms, due at +14ms).
	if at[5] != 14*time.Millisecond {
		t.Fatalf("packet 5 delivered at +%v, want +14ms", at[5])
	}
	start := c.Since(epoch)
	l.Send(0, []byte{10})
	c.Advance(time.Hour)
	if d := at[10] - start; d != time.Millisecond {
		t.Fatalf("after the backlog drained a packet took %v, want 1ms", d)
	}
}

// TestPendingTimersCountsEverythingInFlight checks that PendingTimers counts
// app timers, packets in flight on a link and stream chunks (with the EOF
// behind them) alike, and that an After timer is its channel and its event.
func TestPendingTimersCountsEverythingInFlight(t *testing.T) {
	c := NewSimClock(epoch)
	timer := c.AfterFunc(time.Second, func() {})
	c.After(time.Second)
	l := NewLink(c, LinkProps{Latency: time.Millisecond}, 1)
	l.Attach(1, func(p []byte) bool { PutBuf(p); return false })
	for range 3 {
		l.Send(0, []byte{1})
	}
	a, _ := newStreamPair(c, RouteProps{Latency: time.Millisecond}, simAddr{}, simAddr{})
	a.Write([]byte("one"))
	a.Write([]byte("two"))
	a.Close()
	if got := c.PendingTimers(); got != 2+3+3 {
		t.Fatalf("PendingTimers = %d, want 2 timers + 3 packets + 2 chunks and an EOF", got)
	}
	timer.Stop()
	if got := c.PendingTimers(); got != 7 {
		t.Fatalf("PendingTimers = %d after a cancel, want 7", got)
	}
	c.Advance(time.Millisecond)
	if got := c.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d once the link and stream drained, want 1", got)
	}
	// An After is its channel (two objects: time.Time holds a pointer) and
	// its timer, which keeps the channel: no callback, no cancel handle.
	if n := testing.AllocsPerRun(100, func() { c.After(time.Second) }); n > 3 {
		t.Fatalf("After allocated %v times, want <= 3", n)
	}
}
