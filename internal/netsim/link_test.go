package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestLinkDeliversAfterLatency(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: 10 * time.Millisecond}, 1)
	var mu sync.Mutex
	var got []byte
	var at time.Time
	l.Attach(1, func(p []byte) bool { mu.Lock(); got = p; at = c.Now(); mu.Unlock(); return true })
	if !l.Send(0, []byte("hello")) {
		t.Fatal("send rejected")
	}
	c.Advance(9 * time.Millisecond)
	mu.Lock()
	if got != nil {
		t.Fatal("delivered early")
	}
	mu.Unlock()
	c.Advance(time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if want := epoch.Add(10 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLinkCopiesPayload(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: time.Millisecond}, 1)
	var got []byte
	l.Attach(1, func(p []byte) bool { got = p; return true })
	buf := []byte("abc")
	l.Send(0, buf)
	buf[0] = 'X'
	c.Advance(time.Millisecond)
	if string(got) != "abc" {
		t.Fatalf("payload aliased sender buffer: %q", got)
	}
}

func TestLinkMTUDrop(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{MTU: 4}, 1)
	l.Attach(1, func([]byte) bool { return true })
	if l.Send(0, []byte("12345")) {
		t.Fatal("oversized packet accepted")
	}
	if !l.Send(0, []byte("1234")) {
		t.Fatal("MTU-sized packet rejected")
	}
	s := l.Stats(0)
	if s.TooBig != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLinkLossRateApproximate(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{LossRate: 0.3}, 42)
	l.Attach(1, func([]byte) bool { return true })
	const n = 10000
	dropped := 0
	for i := 0; i < n; i++ {
		if !l.Send(0, []byte{1}) {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %.3f, want ~0.30", rate)
	}
}

func TestLinkLossDeterministicPerSeed(t *testing.T) {
	run := func() []bool {
		c := NewSimClock(epoch)
		l := NewLink(c, LinkProps{LossRate: 0.5}, 7)
		l.Attach(1, func([]byte) bool { return true })
		out := make([]bool, 100)
		for i := range out {
			out[i] = l.Send(0, []byte{1})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loss pattern not reproducible for same seed")
		}
	}
}

func TestLinkBandwidthSerialization(t *testing.T) {
	c := NewSimClock(epoch)
	// 8000 bit/s => a 1000-byte packet takes exactly 1s to transmit.
	l := NewLink(c, LinkProps{Bandwidth: 8000}, 1)
	var mu sync.Mutex
	var arrivals []time.Time
	l.Attach(1, func([]byte) bool { mu.Lock(); arrivals = append(arrivals, c.Now()); mu.Unlock(); return true })
	pkt := make([]byte, 1000)
	l.Send(0, pkt)
	l.Send(0, pkt) // queued behind the first
	c.Advance(3 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets", len(arrivals))
	}
	if want := epoch.Add(1 * time.Second); !arrivals[0].Equal(want) {
		t.Fatalf("first arrival %v, want %v", arrivals[0], want)
	}
	if want := epoch.Add(2 * time.Second); !arrivals[1].Equal(want) {
		t.Fatalf("second arrival %v, want %v (FIFO queueing)", arrivals[1], want)
	}
}

func TestLinkNoReceiver(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{}, 1)
	if l.Send(0, []byte{1}) {
		t.Fatal("send with no receiver accepted")
	}
}

func TestLinkBidirectional(t *testing.T) {
	c := NewSimClock(epoch)
	l := NewLink(c, LinkProps{Latency: time.Millisecond}, 1)
	var a, b string
	l.Attach(0, func(p []byte) bool { a = string(p); return true })
	l.Attach(1, func(p []byte) bool { b = string(p); return true })
	l.Send(0, []byte("to-b"))
	l.Send(1, []byte("to-a"))
	c.Advance(time.Millisecond)
	if a != "to-a" || b != "to-b" {
		t.Fatalf("a=%q b=%q", a, b)
	}
}
