package squic_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
	"tango/internal/squic"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// newTestWorld is the testbed world on an auto-advanced clock; customize
// lets callers mutate the topology (e.g. add loss) before links are
// instantiated.
func newTestWorld(t testing.TB, customize func(*topology.Topology)) *testbed.World {
	return testbed.New(t, testbed.AutoClock(t), customize, 1)
}

func socket(t testing.TB, w *testbed.World, ia addr.IA, ip string, port uint16) *snet.Conn {
	t.Helper()
	c, err := w.Stack(ia, ip).Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialPair establishes a squic client/server pair between 111 and 211 (or
// the given IAs) and returns client conn + accepted server conn.
func dialPair(t testing.TB, w *testbed.World, srcIA, dstIA addr.IA) (*squic.Conn, *squic.Conn, *segment.Path) {
	t.Helper()
	id, err := squic.NewIdentity("server.test")
	if err != nil {
		t.Fatal(err)
	}
	pool := squic.NewCertPool()
	pool.AddIdentity(id)

	serverSock := socket(t, w, dstIA, "10.0.0.2", 443)
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: w.Clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	paths := w.Combiner.Paths(srcIA, dstIA, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	clientSock := socket(t, w, srcIA, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: dstIA, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}

	connCh := make(chan *squic.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := squic.Dial(clientSock, remote, paths[0], "server.test", &squic.Config{Clock: w.Clock, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server := <-connCh:
		return client, server, paths[0]
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted")
		return nil, nil, nil
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, path := dialPair(t, w, topology.AS111, topology.AS211)

	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		io.Copy(s, s)
	}()

	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello over squic on scion")
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo %q", buf)
	}
	_ = path
}

func TestHandshakeTakesOneRTT(t *testing.T) {
	w := newTestWorld(t, nil)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	rtt := 2 * paths[0].Meta.Latency

	id, _ := squic.NewIdentity("server.test")
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	serverSock := socket(t, w, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: w.Clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go lis.Accept()

	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	start := w.Clock.Now()
	client, err := squic.Dial(clientSock, remote, paths[0], "server.test", &squic.Config{Clock: w.Clock, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	elapsed := w.Clock.Since(start)
	if elapsed < rtt || elapsed > rtt+5*time.Millisecond {
		t.Fatalf("handshake took %v, want ~1 RTT (%v)", elapsed, rtt)
	}
}

func TestLargeTransfer(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS211)

	const size = 4 << 20 // 4 MiB: exercises flow control windows and cwnd
	sum := make(chan [32]byte, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		data, err := io.ReadAll(s)
		if err != nil {
			return
		}
		sum <- sha256.Sum256(data)
	}()

	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sum:
		if got != sha256.Sum256(payload) {
			t.Fatal("transfer corrupted")
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(240 * time.Second):
		t.Fatal("transfer never completed")
	}
}

func TestTransferOverLossyPath(t *testing.T) {
	w := newTestWorld(t, func(topo *topology.Topology) {
		// 5% loss on every link: retransmission must recover.
		for _, as := range topo.ASes() {
			for _, intf := range as.Interfaces {
				intf.Props.Loss = 0.05
			}
		}
	})
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS211)

	const size = 32 << 10
	done := make(chan []byte, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		data, err := io.ReadAll(s)
		if err != nil {
			return
		}
		done <- data
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("loss-recovery!"), size/14)
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	select {
	case data := <-done:
		if !bytes.Equal(data, payload) {
			t.Fatalf("corrupted: got %d bytes, want %d", len(data), len(payload))
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(240 * time.Second):
		t.Fatal("lossy transfer never completed")
	}
}

func TestBidirectionalStreams(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS121)

	// Server opens its own stream to the client too.
	serverMsg := []byte("server push")
	go func() {
		s, err := server.OpenStream()
		if err != nil {
			return
		}
		s.Write(serverMsg)
		s.CloseWrite()
	}()
	s, err := client.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, serverMsg) {
		t.Fatalf("got %q", data)
	}
}

func TestManyConcurrentStreams(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS112)

	const n = 20
	go func() {
		for {
			s, err := server.AcceptStream()
			if err != nil {
				return
			}
			go func() {
				defer s.CloseWrite()
				io.Copy(s, s)
			}()
		}
	}()
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			s, err := client.OpenStream()
			if err != nil {
				errc <- err
				return
			}
			msg := []byte(fmt.Sprintf("stream-%d-payload", i))
			if _, err := s.Write(msg); err != nil {
				errc <- err
				return
			}
			s.CloseWrite()
			data, err := io.ReadAll(s)
			if err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(data, msg) {
				errc <- fmt.Errorf("stream %d: got %q", i, data)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDialUnknownServerKey(t *testing.T) {
	w := newTestWorld(t, nil)
	id, _ := squic.NewIdentity("server.test")
	serverSock := socket(t, w, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: w.Clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	// Empty pool: the client must reject the handshake.
	_, err = squic.Dial(clientSock, remote, paths[0], "server.test", &squic.Config{Clock: w.Clock, Pool: squic.NewCertPool()})
	if err == nil {
		t.Fatal("dial succeeded without trusted key")
	}
}

func TestDialWrongIdentity(t *testing.T) {
	w := newTestWorld(t, nil)
	realID, _ := squic.NewIdentity("server.test")
	imposter, _ := squic.NewIdentity("server.test")
	pool := squic.NewCertPool()
	pool.AddIdentity(realID)

	serverSock := socket(t, w, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: w.Clock, Identity: imposter})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	if _, err := squic.Dial(clientSock, remote, paths[0], "server.test", &squic.Config{Clock: w.Clock, Pool: pool}); err == nil {
		t.Fatal("dial accepted an imposter")
	}
}

func TestDialTimeoutNoServer(t *testing.T) {
	w := newTestWorld(t, nil)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.9")}, Port: 443}
	_, err := squic.Dial(clientSock, remote, paths[0], "server.test", &squic.Config{
		Clock: w.Clock, Pool: squic.NewCertPool(), HandshakeTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
}

func TestConnCloseUnblocksPeer(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS121)

	readErr := make(chan error, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			readErr <- err
			return
		}
		_, err = io.ReadAll(s)
		readErr <- err
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	// Give the data time to arrive, then abort the whole connection.
	w.Clock.Sleep(100 * time.Millisecond)
	client.Close()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("server read got nil error after abrupt close")
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(10 * time.Second):
		t.Fatal("server read never unblocked")
	}
}

func TestStreamDeadlines(t *testing.T) {
	w := newTestWorld(t, nil)
	client, _, _ := dialPair(t, w, topology.AS111, topology.AS121)
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.SetReadDeadline(w.Clock.Now().Add(10 * time.Millisecond))
	_, err = s.Read(make([]byte, 1))
	if nerr, ok := err.(interface{ Timeout() bool }); !ok || !nerr.Timeout() {
		t.Fatalf("read err = %v, want timeout", err)
	}
	// Clearing restores readability (blocks; don't wait for data).
	s.SetReadDeadline(time.Time{})
}

func TestStreamFinDeliversEOFOnly(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS121)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		s.Write([]byte("abc"))
		s.CloseWrite()
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream at the server by sending a byte.
	s.Write([]byte{1})
	data, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Fatalf("got %q", data)
	}
	// Subsequent reads keep returning EOF.
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("second read err = %v, want EOF", err)
	}
}

func TestRTTMatchesPathLatency(t *testing.T) {
	w := newTestWorld(t, nil)
	client, server, path := dialPair(t, w, topology.AS111, topology.AS211)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		io.Copy(s, s)
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	// Warm up the stream.
	s.Write([]byte{1})
	io.ReadFull(s, make([]byte, 1))
	start := w.Clock.Now()
	s.Write([]byte{2})
	io.ReadFull(s, make([]byte, 1))
	rtt := w.Clock.Since(start)
	want := 2 * path.Meta.Latency
	if rtt < want || rtt > want+5*time.Millisecond {
		t.Fatalf("echo RTT %v, want ~%v", rtt, want)
	}
}

func TestTransferOverReorderingPath(t *testing.T) {
	// A 64 KiB transfer between the peering-rich pair over links whose
	// latencies are all 2 ms must deliver exact bytes. Despite its name
	// nothing here reorders: every link direction is FIFO. Reordering is
	// covered by TestTransferSurvivesReordering, which permutes the
	// datagrams between two connections directly.
	w := newTestWorld(t, func(topo *topology.Topology) {
		for _, as := range topo.ASes() {
			for _, intf := range as.Interfaces {
				intf.Props.Latency = 2 * time.Millisecond
			}
		}
	})
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS121)
	const size = 64 << 10
	done := make(chan []byte, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		data, err := io.ReadAll(s)
		if err != nil {
			return
		}
		done <- data
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("reorder-me!"), size/11)
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	select {
	case data := <-done:
		if !bytes.Equal(data, payload) {
			t.Fatalf("reordered transfer corrupted: %d bytes, want %d", len(data), len(payload))
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(240 * time.Second):
		t.Fatal("reordered transfer never completed")
	}
}

func TestDuplicatedPacketsIgnored(t *testing.T) {
	// The receiver must process each packet number once even if the network
	// (or an attacker) replays datagrams. We approximate replay with loss +
	// retransmission: PTO-driven retransmits produce duplicate stream
	// frames at identical offsets, which reassembly must deduplicate.
	w := newTestWorld(t, func(topo *topology.Topology) {
		for _, as := range topo.ASes() {
			for _, intf := range as.Interfaces {
				intf.Props.Loss = 0.15
			}
		}
	})
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS112)
	done := make(chan []byte, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		data, err := io.ReadAll(s)
		if err != nil {
			return
		}
		done <- data
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("exactly-once"), 2048)
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	select {
	case data := <-done:
		if !bytes.Equal(data, payload) {
			t.Fatalf("got %d bytes, want %d (duplicates must not corrupt)", len(data), len(payload))
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(240 * time.Second):
		t.Fatal("transfer never completed")
	}
}

// TestTransferReturnsEveryLease: every pooled buffer a transfer leases —
// on send, in transit, on delivery, on loss — goes back to the pool. Once
// both ends have closed and the links have drained, the pool has seen as
// many puts as gets.
func TestTransferReturnsEveryLease(t *testing.T) {
	before := netsim.ReadPoolStats()
	w := newTestWorld(t, func(topo *topology.Topology) {
		for _, as := range topo.ASes() {
			for _, intf := range as.Interfaces {
				intf.Props.Loss = 0.02
			}
		}
	})
	client, server, _ := dialPair(t, w, topology.AS111, topology.AS211)
	done := make(chan []byte, 1)
	go func() {
		s, err := server.AcceptStream()
		if err != nil {
			return
		}
		data, _ := io.ReadAll(s)
		done <- data
	}()
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("lease"), 60_000)
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	select {
	case data := <-done:
		if !bytes.Equal(data, payload) {
			t.Fatalf("got %d bytes, want %d", len(data), len(payload))
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(240 * time.Second):
		t.Fatal("transfer never completed")
	}
	client.Close()
	server.Close()
	w.Clock.Sleep(5 * time.Second) // the CLOSEs and any stragglers arrive or drop
	after := netsim.ReadPoolStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets == 0 || gets != puts {
		t.Fatalf("pool gets %d, puts %d: leases leaked or double-returned", gets, puts)
	}
	t.Logf("gets %d, misses %d, puts %d, dropped full %d", gets, after.Misses-before.Misses, puts, after.DropsFull-before.DropsFull)
}

// BenchmarkSQUICTransfer measures squic stream goodput over a 2-hop SCION
// path in host time, since crypto and packetization dominate: each op
// writes 256 KiB on a fresh stream and waits for the server's one-byte
// reply. CI's bench step holds its MB/s above a floor.
func BenchmarkSQUICTransfer(b *testing.B) {
	w := newTestWorld(b, nil)
	client, server, _ := dialPair(b, w, topology.AS111, topology.AS112)
	go func() {
		for {
			s, err := server.AcceptStream()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, s)
				s.Write([]byte{1})
			}()
		}
	}()
	const chunk = 256 << 10
	payload := make([]byte, chunk)
	reply := make([]byte, 1)
	b.SetBytes(chunk)
	b.ResetTimer()
	for range b.N {
		s, err := client.OpenStream()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		s.CloseWrite()
		if _, err := io.ReadFull(s, reply); err != nil {
			b.Fatal(err)
		}
	}
}
