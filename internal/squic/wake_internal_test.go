package squic

import (
	"bytes"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/snet"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// handOver delivers every datagram captured on from to c through its
// handler and reports whether any delivery woke a goroutine.
func handOver(c *Conn, from *capturePconn) (woke bool) {
	for _, p := range from.take() {
		if c.handleDatagram(snet.Datagram{Payload: p}) {
			woke = true
		}
		from.recycle(p)
	}
	return woke
}

// parkedOrDone waits until a goroutine is parked on w or done is closed,
// and reports which. Reading w under c.mu orders the test after everything
// the goroutine wrote before parking, its packets included.
func parkedOrDone(t *testing.T, c *Conn, w *waitCond, done <-chan struct{}) (parked bool) {
	t.Helper()
	for range 100000 {
		select {
		case <-done:
			return false
		default:
		}
		c.mu.Lock()
		parked = w.waiters > 0
		c.mu.Unlock()
		if parked {
			return true
		}
		runtime.Gosched()
	}
	t.Fatal("the goroutine neither parked nor finished")
	return false
}

// TestHandleDatagramWakeContract checks the verdict squic's datagram
// handlers report to snet, per class of delivery: true exactly when the
// datagram made a goroutine runnable.
func TestHandleDatagramWakeContract(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}

	t.Run("data and ACK-only, nobody waiting", func(t *testing.T) {
		client, server, toServer, toClient := connPair(t, clock)
		s, _ := client.OpenStream()
		s.Write([]byte("nobody reads this yet"))
		if handOver(server, toServer) {
			t.Error("data for a stream nobody reads or accepts reported a wake")
		}
		if handOver(client, toClient) {
			t.Error("an ACK-only packet with no writer waiting reported a wake")
		}
	})

	t.Run("data with a blocked reader", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		s, _ := client.OpenStream()
		s.Write([]byte("first"))
		handOver(server, toServer)
		rs := server.acceptQ[0]
		got, _ := readAvailable(rs, nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			var buf [64]byte
			n, _ := rs.Read(buf[:])
			got = append(got, buf[:n]...)
		}()
		if !parkedOrDone(t, server, &rs.readable, done) {
			t.Fatal("the reader returned without data")
		}
		s.Write([]byte(" second"))
		if !handOver(server, toServer) {
			t.Error("data for a blocked reader reported no wake")
		}
		<-done
		if string(got) != "first second" {
			t.Errorf("reader got %q", got)
		}
	})

	t.Run("ACK that frees room for a blocked writer", func(t *testing.T) {
		cfg := &Config{Clock: clock, WriteBuffer: 4096, InitialCwnd: 4096}
		client, server, toServer, toClient := connPairConfig(t, cfg)
		s, _ := client.OpenStream()
		data := bytes.Repeat([]byte("w"), 32<<10)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := s.Write(data); err != nil {
				t.Error(err)
			}
		}()
		if !parkedOrDone(t, client, &s.writable, done) {
			t.Fatal("a write larger than the buffer and the window did not block")
		}
		handOver(server, toServer)
		if !handOver(client, toClient) {
			t.Error("ACKs that free room for a blocked writer reported no wake")
		}
		// Run the exchange out, touching the pconns only while the writer
		// is parked or done.
		for parkedOrDone(t, client, &s.writable, done) {
			handOver(server, toServer)
			handOver(client, toClient)
		}
		got, _ := readAvailable(server.acceptQ[0], nil)
		for len(toServer.pkts)+len(toClient.pkts) > 0 {
			handOver(server, toServer)
			handOver(client, toClient)
			got, _ = readAvailable(server.acceptQ[0], got)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("server read %d bytes, want %d", len(got), len(data))
		}
	})

	t.Run("data for another stream than the parked reader's", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		a, _ := client.OpenStream()
		b, _ := client.OpenStream()
		b.Write([]byte("b"))
		handOver(server, toServer)
		rb := server.acceptQ[0]
		readAvailable(rb, nil)
		done := parkReader(t, server, rb)
		a.Write([]byte("for a"))
		if handOver(server, toServer) {
			t.Error("data for stream A with only stream B's reader parked reported a wake")
		}
		server.Close()
		<-done
	})

	t.Run("duplicate of delivered data", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		s, _ := client.OpenStream()
		s.Write([]byte("once"))
		handOver(server, toServer)
		rs := server.acceptQ[0]
		if got, _ := readAvailable(rs, nil); string(got) != "once" {
			t.Fatalf("reader got %q", got)
		}
		done := parkReader(t, server, rs)
		expirePTO(client) // resends "once" in a new packet
		if len(toServer.pkts) == 0 {
			t.Fatal("the PTO resent nothing")
		}
		if handOver(server, toServer) {
			t.Error("a retransmit of delivered data reported a wake")
		}
		server.Close()
		<-done
	})

	t.Run("out-of-order chunk that fills no gap", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		s, _ := client.OpenStream()
		s.Write([]byte("first"))
		handOver(server, toServer)
		rs := server.acceptQ[0]
		got, _ := readAvailable(rs, nil)
		var rest []byte
		done := make(chan struct{})
		go func() {
			defer close(done)
			var buf [64]byte
			n, _ := rs.Read(buf[:])
			rest = buf[:n]
		}()
		if !parkedOrDone(t, server, &rs.readable, done) {
			t.Fatal("the reader returned without data")
		}
		s.Write([]byte(" second"))
		s.Write([]byte(" third"))
		pkts := toServer.take()
		if len(pkts) != 2 {
			t.Fatalf("two writes sent %d packets, want 2", len(pkts))
		}
		if server.handleDatagram(snet.Datagram{Payload: pkts[1]}) {
			t.Error("an out-of-order chunk that fills no gap reported a wake")
		}
		if !server.handleDatagram(snet.Datagram{Payload: pkts[0]}) {
			t.Error("the chunk that fills the gap reported no wake")
		}
		<-done
		if got = append(got, rest...); string(got) != "first second third" {
			t.Errorf("reader got %q", got)
		}
	})

	t.Run("MAX_STREAM_DATA while the congestion window is closed", func(t *testing.T) {
		cfg := &Config{Clock: clock, WriteBuffer: 4096, InitialCwnd: 4096}
		client, server, _, toClient := connPairConfig(t, cfg)
		s, _ := client.OpenStream()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Write(bytes.Repeat([]byte("w"), 32<<10))
		}()
		if !parkedOrDone(t, client, &s.writable, done) {
			t.Fatal("a write larger than the buffer and the window did not block")
		}
		server.mu.Lock()
		server.queueFrameLocked(frame{kind: ftMaxStreamData, id: s.id, val: 2 * streamWindow})
		server.packetizeLocked()
		server.mu.Unlock()
		if handOver(client, toClient) {
			t.Error("a window update that gave a writer no buffer room reported a wake")
		}
		client.mu.Lock()
		raised, parked := s.maxSend == 2*streamWindow, s.writable.waiters == 1
		client.mu.Unlock()
		if !raised || !parked {
			t.Errorf("after the window update: limit raised %v, writer still parked %v", raised, parked)
		}
		client.Close()
		<-done
	})

	t.Run("new peer stream while AcceptStream waits", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		done := make(chan struct{})
		var accepted *Stream
		go func() {
			defer close(done)
			accepted, _ = server.AcceptStream()
		}()
		if !parkedOrDone(t, server, &server.acCond, done) {
			t.Fatal("AcceptStream returned before any stream opened")
		}
		s, _ := client.OpenStream()
		s.Write([]byte("hello"))
		if !handOver(server, toServer) {
			t.Error("a new stream for a waiting AcceptStream reported no wake")
		}
		<-done
		if accepted == nil || accepted.id != s.id {
			t.Errorf("AcceptStream returned %v, want stream %d", accepted, s.id)
		}
	})

	t.Run("handshake", func(t *testing.T) {
		id, err := NewIdentity("server.test")
		if err != nil {
			t.Fatal(err)
		}
		pool := NewCertPool()
		pool.AddIdentity(id)
		toServer, toClient := &capturePconn{}, &capturePconn{}
		l := &Listener{
			pconn:    toClient,
			cfg:      (&Config{Clock: clock, Identity: id}).withDefaults(),
			acceptCh: make(chan *Conn, 1),
			done:     make(chan struct{}),
			conns:    make(map[uint64]*Conn),
		}
		client := newConn(toServer, (&Config{Clock: clock, Pool: pool}).withDefaults(), true)
		eph, err := newEphemeral()
		if err != nil {
			t.Fatal(err)
		}
		client.ephPriv, client.connID, client.serverName = eph, 7, "server.test"
		initial := header{ptype: ptInitial, connID: 7}.append(nil)
		initial = append(initial, initialPayload(eph.PublicKey().Bytes(), "server.test")...)
		if !l.handleDatagram(snet.Datagram{Payload: initial}) {
			t.Error("an Initial that queues a connection for Accept reported no wake")
		}
		if len(l.acceptCh) != 1 {
			t.Fatal("the Initial queued no connection")
		}
		if !handOver(client, toClient) {
			t.Error("the Hello that completes Dial's handshake reported no wake")
		}
		if !client.established {
			t.Error("the Hello did not establish the client")
		}
	})

	t.Run("peer close", func(t *testing.T) {
		client, server, toServer, _ := connPair(t, clock)
		client.Close()
		if !handOver(server, toServer) {
			t.Error("a peer's CLOSE reported no wake")
		}
		if server.Err() == nil {
			t.Error("the CLOSE did not tear the server down")
		}
	})
}

// parkReader starts a Read of s that parks until teardown, waits until it
// is parked, and returns a channel closed when it returns.
func parkReader(t *testing.T, c *Conn, s *Stream) (done <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		var buf [64]byte
		s.Read(buf[:])
	}()
	if !parkedOrDone(t, c, &s.readable, ch) {
		t.Fatal("the reader returned without data")
	}
	return ch
}

// TestDeliveryWakesOnlyItsStream: with a reader parked on each of four
// streams of one connection, data for one stream wakes its reader alone,
// and teardown wakes the other three.
func TestDeliveryWakesOnlyItsStream(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, _ := connPair(t, clock)
	var sent [4]*Stream
	for i := range sent {
		sent[i], _ = client.OpenStream()
		sent[i].Write([]byte("open"))
	}
	handOver(server, toServer)
	if len(server.acceptQ) != len(sent) {
		t.Fatalf("server has %d streams, want %d", len(server.acceptQ), len(sent))
	}
	var done [4]<-chan struct{}
	for i, rs := range server.acceptQ {
		readAvailable(rs, nil)
		done[i] = parkReader(t, server, rs)
	}
	sent[0].Write([]byte("for stream 0"))
	server.mu.Lock()
	wakes := server.wakes
	server.mu.Unlock()
	if !handOver(server, toServer) {
		t.Error("data for a parked reader reported no wake")
	}
	server.mu.Lock()
	for i, rs := range server.acceptQ[1:] {
		if rs.readable.waiters != 1 {
			t.Errorf("stream %d: %d readers parked after data for stream 0, want 1", i+1, rs.readable.waiters)
		}
	}
	if n := server.wakes - wakes; n != 1 {
		t.Errorf("data for stream 0 woke %d conditions, want 1", n)
	}
	server.mu.Unlock()
	<-done[0]
	server.Close()
	for _, d := range done[1:] {
		<-d
	}
}

// wakeAll is a socket whose handler verdicts all read "woke": the
// auto-advancer then waits out its quiescence window after every delivery,
// as it did before deliveries reported real wakes.
type wakeAll struct{ *snet.Conn }

func (w wakeAll) SetHandler(h func(snet.Datagram) bool) {
	w.Conn.SetHandler(func(dg snet.Datagram) bool { h(dg); return true })
}

// bounceForever bounces a packet every 70µs on a link of clock, between
// receivers that report no wake, until stop is called or the test ends.
func bounceForever(t *testing.T, clock *netsim.SimClock) (stop func()) {
	stopBounce := make(chan struct{})
	stop = sync.OnceFunc(func() { close(stopBounce) })
	t.Cleanup(stop)
	bounce := netsim.NewLink(clock, netsim.LinkProps{Latency: 70 * time.Microsecond}, 99)
	for end := range 2 {
		bounce.Attach(1-end, func(p []byte) bool {
			select {
			case <-stopBounce:
				netsim.PutBuf(p)
			default:
				bounce.SendOwned(1-end, p)
			}
			return false
		})
	}
	bounce.Send(0, []byte{0})
	return stop
}

// transferTimes is when, in virtual time from the first write, the client's
// write of a body returned and the server read its last byte.
type transferTimes struct{ written, read time.Duration }

// autoTransfer sends 512 KiB from 1-ff00:0:111 to 2-ff00:0:211 over squic on
// an auto-advanced world. The client's write buffer and initial window are
// small, so its writer parks on the write buffer again and again and only
// ACKs wake it. A packet bounces on a separate link every 70µs through
// receivers that report no wake, so the advancer always has a non-waking
// instant it could move to before a woken goroutine has run. With
// everyWake, every delivery reports a wake.
func autoTransfer(t *testing.T, everyWake bool) transferTimes {
	w := testbed.New(t, testbed.AutoClock(t), nil, 1)
	bounceForever(t, w.Clock)

	socket := func(ia addr.IA, ip string, port uint16) PacketConn {
		c, err := w.Stack(ia, ip).Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if everyWake {
			return wakeAll{c}
		}
		return c
	}
	id, err := NewIdentity("server.test")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewCertPool()
	pool.AddIdentity(id)
	lis, err := Listen(socket(topology.AS211, "10.0.0.2", 443), &Config{Clock: w.Clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	body := bytes.Repeat([]byte("0123456789abcdef"), 32<<10)
	readAt := make(chan time.Time, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		s, err := conn.AcceptStream()
		if err != nil {
			return
		}
		got, err := io.ReadAll(s)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("server read %d bytes (err %v), want %d", len(got), err, len(body))
		}
		readAt <- w.Clock.Now()
	}()

	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	cfg := &Config{Clock: w.Clock, Pool: pool, WriteBuffer: 8 << 10, InitialCwnd: 16 << 10}
	client, err := Dial(socket(topology.AS111, "10.0.0.1", 0), remote, paths[0], "server.test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	start := w.Clock.Now()
	if _, err := s.Write(body); err != nil {
		t.Fatal(err)
	}
	times := transferTimes{written: w.Clock.Since(start)}
	s.CloseWrite()
	select {
	case at := <-readAt:
		times.read = at.Sub(start)
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(10 * time.Second):
		t.Fatal("the transfer never completed")
	}
	return times
}

// TestAutoAdvancedTransferMatchesEveryWake: a transfer whose writer only
// ACKs wake takes the same virtual time whether deliveries report real
// wakes or all report one. A writer wake that goes unreported lets the
// advancer move on along the bouncing link before the writer refills the
// window, and the transfer ends later.
//
// Each transfer runs in a subtest, so its world's advancer and bouncing link
// stop before the next starts: an advancer stepping along a link that never
// wakes anyone does not yield the one P to another world.
func TestAutoAdvancedTransferMatchesEveryWake(t *testing.T) {
	var got, want transferTimes
	t.Run("real wakes", func(t *testing.T) { got = autoTransfer(t, false) })
	t.Run("every delivery wakes", func(t *testing.T) { want = autoTransfer(t, true) })
	if got != want {
		t.Fatalf("reporting real wakes: write returned at +%v, last byte read at +%v; every delivery waking: +%v, +%v",
			got.written, got.read, want.written, want.read)
	}
}

// TestNonWakingAdvancerLeavesOtherWorldsTheProcessor: while one auto-advanced
// world bounces a packet nobody waits for, forever, a squic transfer on
// another auto-advanced world in the same process finishes within 10 s of
// host time. The busy world's advancer never opens a quiescence window, so
// only its fairness yield gives the process's one P to the other world;
// without it the other world runs only when the runtime preempts the busy
// advancer, every 10 ms, and the transfer takes minutes. The busy world
// stops bouncing after the limit, so a starved run fails in about 10 s.
func TestNonWakingAdvancerLeavesOtherWorldsTheProcessor(t *testing.T) {
	const limit = 10 * time.Second
	stop := bounceForever(t, testbed.AutoClock(t))
	//lint:allow-wallclock wall-time bound on the busy world's bouncing
	bound := time.AfterFunc(limit, stop)
	defer bound.Stop()
	//lint:allow-wallclock the claim is about host time
	start := time.Now()
	autoTransfer(t, false)
	//lint:allow-wallclock the claim is about host time
	if took := time.Since(start); took > limit {
		t.Fatalf("the transfer beside a busy non-waking world took %v of host time, want <= %v", took, limit)
	}
}
