package snet_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// newWorld is the testbed world on an auto-advanced clock.
func newWorld(t *testing.T) *testbed.World { return testbed.New(t, testbed.AutoClock(t), nil, 1) }

func TestDatagramRoundTrip(t *testing.T) {
	w := newWorld(t)
	client := w.Stack(topology.AS111, "10.0.0.1")
	server := w.Stack(topology.AS211, "10.0.0.2")

	sconn, err := server.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	go func() {
		for {
			dg, err := sconn.ReadFrom()
			if err != nil {
				return
			}
			sconn.WriteTo(append([]byte("echo:"), dg.Payload...), dg.Src, dg.ReplyPath)
		}
	}()

	cconn, err := client.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 8000}

	start := w.Clock.Now()
	if err := cconn.WriteTo([]byte("ping"), dst, paths[0]); err != nil {
		t.Fatal(err)
	}
	dg, err := cconn.ReadFrom()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "echo:ping" {
		t.Fatalf("payload %q", dg.Payload)
	}
	rtt := w.Clock.Since(start)
	want := 2 * paths[0].Meta.Latency
	if rtt < want || rtt > want+time.Millisecond {
		t.Fatalf("RTT %v, want ~%v", rtt, want)
	}
	if dg.Src.Port != 8000 || dg.Src.IA != topology.AS211 {
		t.Fatalf("src %v", dg.Src)
	}
}

func TestASLocalDatagram(t *testing.T) {
	w := newWorld(t)
	a := w.Stack(topology.AS111, "10.0.0.1")
	b := w.Stack(topology.AS111, "10.0.0.9")
	bc, err := b.Listen(53)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	ac, err := a.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.9")}, Port: 53}
	if err := ac.WriteTo([]byte("local query"), dst, nil); err != nil {
		t.Fatal(err)
	}
	dg, err := bc.ReadFrom()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "local query" {
		t.Fatalf("payload %q", dg.Payload)
	}
	if len(dg.ReplyPath.Hops) != 0 {
		t.Fatal("AS-local reply path should be empty")
	}
}

func TestReadDeadline(t *testing.T) {
	w := newWorld(t)
	s := w.Stack(topology.AS111, "10.0.0.1")
	c, err := s.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(w.Clock.Now().Add(5 * time.Millisecond))
	start := w.Clock.Now()
	_, err = c.ReadFrom()
	if err != snet.ErrDeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
	if got := w.Clock.Since(start); got != 5*time.Millisecond {
		t.Fatalf("deadline fired after %v", got)
	}
}

func TestPortAllocation(t *testing.T) {
	w := newWorld(t)
	s := w.Stack(topology.AS111, "10.0.0.1")
	a, err := s.Listen(1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(1000); err == nil {
		t.Fatal("double bind succeeded")
	}
	a.Close()
	if _, err := s.Listen(1000); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	e1, err := s.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.LocalAddr().Port == e2.LocalAddr().Port {
		t.Fatal("ephemeral ports collide")
	}
}

func TestWriteToWrongSourcePath(t *testing.T) {
	w := newWorld(t)
	s := w.Stack(topology.AS112, "10.0.0.1")
	c, err := s.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start) // wrong src AS
	dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 1}
	if err := c.WriteTo([]byte("x"), dst, paths[0]); err == nil {
		t.Fatal("foreign-source path accepted")
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	w := newWorld(t)
	s := w.Stack(topology.AS111, "10.0.0.1")
	c, err := s.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { _, err := c.ReadFrom(); errc <- err }()
	//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
	time.Sleep(10 * time.Millisecond) // real time: let the reader block
	c.Close()
	select {
	case err := <-errc:
		if err != snet.ErrClosed {
			t.Fatalf("err = %v", err)
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(time.Second):
		t.Fatal("ReadFrom never unblocked")
	}
	if err := c.WriteTo([]byte("x"), c.LocalAddr(), nil); err != snet.ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
}

func TestMaxPayload(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	p := paths[0]
	max := snet.MaxPayload(p)
	if max <= 0 || max >= p.Meta.MTU {
		t.Fatalf("MaxPayload = %d for MTU %d", max, p.Meta.MTU)
	}
	// A payload of exactly MaxPayload must traverse; one byte more must not.
	client := w.Stack(topology.AS111, "10.0.0.1")
	server := w.Stack(topology.AS211, "10.0.0.2")
	sc, err := server.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cc, err := client.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 9000}
	if err := cc.WriteTo(make([]byte, max), dst, p); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ReadFrom(); err != nil {
		t.Fatal(err)
	}
	if err := cc.WriteTo(make([]byte, max+1), dst, p); err != nil {
		t.Fatal(err) // accepted locally...
	}
	sc.SetReadDeadline(w.Clock.Now().Add(500 * time.Millisecond))
	if _, err := sc.ReadFrom(); err == nil {
		t.Fatal("...but must be dropped by the first link") // nothing arrives
	}
	_ = segment.MACLen
}

// TestWriteToDoesNotRetainPayload: WriteTo is done with the caller's buffer
// when it returns, also for an AS-local send, whose delivery happens later.
// The sender scribbles over its buffer right after WriteTo; the receiver,
// in queued and in handler mode, must still see the original bytes.
func TestWriteToDoesNotRetainPayload(t *testing.T) {
	for _, handler := range []bool{false, true} {
		t.Run(fmt.Sprintf("handler=%v", handler), func(t *testing.T) {
			w := newWorld(t)
			a := w.Stack(topology.AS111, "10.0.0.1")
			b := w.Stack(topology.AS111, "10.0.0.9")
			bc, err := b.Listen(53)
			if err != nil {
				t.Fatal(err)
			}
			defer bc.Close()
			got := make(chan []byte, 1)
			if handler {
				bc.SetHandler(func(dg snet.Datagram) { got <- bytes.Clone(dg.Payload) })
			}
			ac, err := a.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			defer ac.Close()
			dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.9")}, Port: 53}
			buf := []byte("original bytes")
			if err := ac.WriteTo(buf, dst, nil); err != nil {
				t.Fatal(err)
			}
			copy(buf, "scribbled over")
			var payload []byte
			if handler {
				payload = <-got
			} else {
				dg, err := bc.ReadFrom()
				if err != nil {
					t.Fatal(err)
				}
				payload = dg.Payload
			}
			if string(payload) != "original bytes" {
				t.Fatalf("receiver saw %q", payload)
			}
		})
	}
}

// TestReplyPathMemoised: datagrams arriving over one path share one reply
// path, equal to the packet's freshly reversed path; another path gets its
// own.
func TestReplyPathMemoised(t *testing.T) {
	w := newWorld(t)
	client := w.Stack(topology.AS111, "10.0.0.1")
	server := w.Stack(topology.AS211, "10.0.0.2")
	sc, err := server.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cc, err := client.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) < 2 {
		t.Fatalf("%d paths, want 2", len(paths))
	}
	dst := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 8000}
	recv := func(p *segment.Path) *segment.Path {
		t.Helper()
		if err := cc.WriteTo([]byte("x"), dst, p); err != nil {
			t.Fatal(err)
		}
		dg, err := sc.ReadFrom()
		if err != nil {
			t.Fatal(err)
		}
		return dg.ReplyPath
	}
	r0 := recv(paths[0])
	if want := paths[0].Reversed(); r0.Src != want.Src || r0.Dst != want.Dst || !slices.Equal(r0.Hops, want.Hops) {
		t.Fatalf("reply path %v, want %v", r0, want)
	}
	if again := recv(paths[0]); again != r0 {
		t.Fatal("second datagram over the same path got a new reply path")
	}
	r1 := recv(paths[1])
	if r1 == r0 || r1.Fingerprint() == r0.Fingerprint() {
		t.Fatal("a different path got the first path's reply path")
	}
	if again := recv(paths[0]); again != r0 {
		t.Fatal("the first path's reply path was forgotten")
	}
}

// pairWorld is the testbed world stepped by hand: no auto-advancer runs,
// so a test can count every allocation a datagram costs, timers and links
// included. Its datagrams cross the core link between the core ASes of
// ISDs 1 and 2.
type pairWorld struct {
	clock        *netsim.SimClock
	path         *segment.Path // src to dst, two hops
	src, dst     *snet.Stack
	srcIA, dstIA addr.IA
	dstHost      netip.Addr
}

func newPairWorld(t *testing.T) *pairWorld {
	t.Helper()
	tb := testbed.New(t, testbed.NewClock(), nil, 1)
	w := &pairWorld{clock: tb.Clock, srcIA: topology.Core110, dstIA: topology.Core210, dstHost: netip.MustParseAddr("10.0.0.2")}
	for _, p := range tb.Combiner.Paths(w.srcIA, w.dstIA, testbed.Start) {
		if len(p.Hops) == 2 {
			w.path = p
			break
		}
	}
	if w.path == nil {
		t.Fatalf("want a two-hop path from %s to %s", w.srcIA, w.dstIA)
	}
	w.src = tb.Stack(w.srcIA, "10.0.0.1")
	w.dst = tb.Stack(w.dstIA, w.dstHost.String())
	return w
}

// run delivers everything in flight.
func (w *pairWorld) run() {
	for w.clock.AdvanceToNext() {
	}
}

// TestTemplatedDatagramAllocs: once warm, a datagram sent with WriteTo over
// a two-hop templated path and delivered to a socket in handler mode
// allocates nothing — the packet stays on WriteTo's stack, the wire buffer
// comes from the pool, and the datagram reaches the handler by value.
func TestTemplatedDatagramAllocs(t *testing.T) {
	w := newPairWorld(t)
	sc, err := w.dst.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got := 0
	sc.SetHandler(func(dg snet.Datagram) {
		if len(dg.Payload) == 900 && dg.Src.IA == w.srcIA {
			got++
		}
	})
	cc, err := w.src.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	dst := addr.UDPAddr{Addr: addr.Addr{IA: w.dstIA, Host: w.dstHost}, Port: 8000}
	payload := make([]byte, 900)
	send := func() {
		if err := cc.WriteTo(payload, dst, w.path); err != nil {
			t.Fatal(err)
		}
		w.run()
	}
	for range 8 { // warm the template, MAC caches, pools and reply path
		send()
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("templated send and handler delivery: %v allocs/datagram, want 0", n)
	}
	if got != 8+101 {
		t.Fatalf("handler saw %d datagrams, want %d", got, 8+101)
	}
}

// TestReadFromAcrossDeadline: in queued mode a read deadline fails ReadFrom
// once it passes, clearing it lets ReadFrom return queued datagrams again,
// a ReadFrom without a deadline allocates nothing of its own, and a passed
// deadline or a closed socket fails the read even with datagrams queued.
func TestReadFromAcrossDeadline(t *testing.T) {
	w := newPairWorld(t)
	sc, err := w.dst.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cc, err := w.src.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	dst := addr.UDPAddr{Addr: addr.Addr{IA: w.dstIA, Host: w.dstHost}, Port: 8000}

	sc.SetReadDeadline(w.clock.Now().Add(time.Millisecond))
	w.run() // the deadline fires with nothing queued
	if _, err := sc.ReadFrom(); err != snet.ErrDeadlineExceeded {
		t.Fatalf("read past the deadline: err = %v", err)
	}
	sc.SetReadDeadline(time.Time{})
	const n = 102
	for i := range n {
		if err := cc.WriteTo([]byte{byte(i)}, dst, w.path); err != nil {
			t.Fatal(err)
		}
	}
	w.run()
	next := 0
	read := func() {
		dg, err := sc.ReadFrom()
		if err != nil {
			t.Fatal(err)
		}
		if len(dg.Payload) != 1 || int(dg.Payload[0]) != next {
			t.Fatalf("read %v, want datagram %d", dg.Payload, next)
		}
		next++
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("ReadFrom without a deadline: %v allocs, want 0", allocs)
	}
	if next != n {
		t.Fatalf("read %d datagrams, want %d", next, n)
	}

	// With datagrams queued, a passed deadline still fails every read, and
	// so does a closed socket.
	for i := range 4 {
		if err := cc.WriteTo([]byte{byte(i)}, dst, w.path); err != nil {
			t.Fatal(err)
		}
	}
	w.run()
	sc.SetReadDeadline(w.clock.Now().Add(-time.Millisecond))
	for i := range 50 {
		if _, err := sc.ReadFrom(); err != snet.ErrDeadlineExceeded {
			t.Fatalf("read %d past the deadline with datagrams queued: err = %v", i, err)
		}
	}
	sc.SetReadDeadline(time.Time{})
	sc.Close()
	for i := range 50 {
		if _, err := sc.ReadFrom(); err != snet.ErrClosed {
			t.Fatalf("read %d on a closed socket with datagrams queued: err = %v", i, err)
		}
	}
}
