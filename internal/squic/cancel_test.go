package squic_test

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/squic"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// TestDialContextCancelAbortsHandshake: canceling the context mid-handshake
// must abort promptly with the context's error, not run out the handshake
// timeout — a racing dialer discards losers this way on every raced dial.
func TestDialContextCancelAbortsHandshake(t *testing.T) {
	w := newTestWorld(t, nil)
	// No listener on the target port: the handshake black-holes.
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 9999}

	ctx, cancel := context.WithCancel(context.Background())
	w.Clock.AfterFunc(300*time.Millisecond, func() { cancel() })
	start := w.Clock.Now()
	_, err := squic.DialContext(ctx, clientSock, remote, paths[0], "server.test",
		&squic.Config{Clock: w.Clock, Pool: squic.NewCertPool(), HandshakeTimeout: 10 * time.Second})
	if err == nil {
		t.Fatal("dial into a black hole succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := w.Clock.Since(start); took > 5*time.Second {
		t.Fatalf("cancel took %v of virtual time — handshake ran to timeout instead of aborting", took)
	}
}

// TestServerReapsUnconfirmedConns: an Initial whose client disappears (the
// fate of a raced dial's canceled loser) must not park a zombie connection
// in the listener forever — the confirm timeout reaps it.
func TestServerReapsUnconfirmedConns(t *testing.T) {
	w := newTestWorld(t, nil)
	id, err := squic.NewIdentity("server.test")
	if err != nil {
		t.Fatal(err)
	}
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	serverSock := socket(t, w, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: w.Clock, Identity: id, HandshakeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	clientSock := socket(t, w, topology.AS111, "10.0.0.1", 0)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}

	// Abandon the dial while the Initial is still in flight (one-way
	// latency to ISD 2 far exceeds 20ms): the server will answer a client
	// that no longer exists.
	ctx, cancel := context.WithCancel(context.Background())
	w.Clock.AfterFunc(20*time.Millisecond, func() { cancel() })
	if _, err := squic.DialContext(ctx, clientSock, remote, paths[0], "server.test",
		&squic.Config{Clock: w.Clock, Pool: pool}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned dial: err = %v, want context.Canceled", err)
	}

	// The server builds the conn when the Initial lands...
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	deadline := time.Now().Add(5 * time.Second)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	for lis.ConnCount() == 0 && time.Now().Before(deadline) {
		w.Clock.Sleep(100 * time.Millisecond)
	}
	if n := lis.ConnCount(); n != 1 {
		t.Fatalf("server tracks %d conns after abandoned Initial, want 1", n)
	}
	// ...and reaps it once the handshake is never confirmed.
	w.Clock.Sleep(3 * time.Second)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	for lis.ConnCount() > 0 && time.Now().Before(deadline) {
		w.Clock.Sleep(100 * time.Millisecond)
	}
	if n := lis.ConnCount(); n != 0 {
		t.Fatalf("server still tracks %d unconfirmed conns after the confirm timeout", n)
	}
}
