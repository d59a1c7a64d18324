package netsim

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// simWorld wires a SimClock with auto-advance for stream tests.
func simWorld(t *testing.T) (*SimClock, *StreamNetwork) {
	t.Helper()
	c := NewSimClock(epoch)
	stop := c.AutoAdvance(100 * time.Microsecond)
	t.Cleanup(stop)
	return c, NewStreamNetwork(c)
}

func TestStreamDialAndEcho(t *testing.T) {
	_, n := simWorld(t)
	n.SetRoute("client", "server", RouteProps{Latency: 5 * time.Millisecond})
	l, err := n.Listen("server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	conn, err := n.Dial(context.Background(), "client", "server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("ping over simulated BGP/IP")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
}

func TestStreamRTTMeasuredOnVirtualClock(t *testing.T) {
	c, n := simWorld(t)
	n.SetRoute("client", "server", RouteProps{Latency: 20 * time.Millisecond})
	l, err := n.Listen("server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1)
		conn.Read(buf)
		conn.Write(buf)
	}()
	conn, err := n.Dial(context.Background(), "client", "server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := c.Now()
	conn.Write([]byte{1})
	io.ReadFull(conn, make([]byte, 1))
	rtt := c.Since(start)
	if rtt != 40*time.Millisecond {
		t.Fatalf("echo RTT = %v, want exactly 40ms on the virtual clock", rtt)
	}
}

func TestStreamDialEstablishmentCostsOneRTT(t *testing.T) {
	c, n := simWorld(t)
	n.SetRoute("a", "b", RouteProps{Latency: 15 * time.Millisecond})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	start := c.Now()
	conn, err := n.Dial(context.Background(), "a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := c.Since(start); got != 30*time.Millisecond {
		t.Fatalf("dial took %v, want 30ms (one RTT)", got)
	}
}

func TestStreamDialRefused(t *testing.T) {
	_, n := simWorld(t)
	if _, err := n.Dial(context.Background(), "a", "nowhere:1"); err == nil {
		t.Fatal("dial to missing listener succeeded")
	}
}

func TestStreamDialContextCancel(t *testing.T) {
	// No auto-advance: the establishment timer can never fire, so Dial must
	// unblock via the context.
	c := NewSimClock(epoch)
	n := NewStreamNetwork(c)
	n.SetRoute("a", "b", RouteProps{Latency: time.Hour})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if _, err := n.Dial(ctx, "a", "b:1"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStreamCloseDeliversEOF(t *testing.T) {
	_, n := simWorld(t)
	n.SetRoute("a", "b", RouteProps{Latency: time.Millisecond})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverGot := make(chan []byte, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		data, _ := io.ReadAll(conn)
		serverGot <- data
	}()
	conn, err := n.Dial(context.Background(), "a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("last words"))
	conn.Close()
	select {
	case data := <-serverGot:
		if string(data) != "last words" {
			t.Fatalf("server read %q", data)
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw EOF")
	}
}

func TestStreamReadDeadline(t *testing.T) {
	c, n := simWorld(t)
	n.SetRoute("a", "b", RouteProps{Latency: time.Millisecond})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	conn, err := n.Dial(context.Background(), "a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(c.Now().Add(5 * time.Millisecond))
	_, err = conn.Read(make([]byte, 1))
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Clearing the deadline allows reads again.
	conn.SetReadDeadline(time.Time{})
}

func TestStreamListenerAddrInUse(t *testing.T) {
	_, n := simWorld(t)
	if _, err := n.Listen("h:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("h:1"); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestStreamListenerCloseUnblocksAccept(t *testing.T) {
	_, n := simWorld(t)
	l, err := n.Listen("h:1")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { _, err := l.Accept(); errc <- err }()
	l.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Accept returned nil after Close")
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(time.Second):
		t.Fatal("Accept never unblocked")
	}
	// Port is free again after close.
	if _, err := n.Listen("h:1"); err != nil {
		t.Fatalf("relisten failed: %v", err)
	}
}

func TestStreamDefaultRoute(t *testing.T) {
	c, n := simWorld(t)
	n.SetDefaultRoute(RouteProps{Latency: 3 * time.Millisecond})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	start := c.Now()
	conn, err := n.Dial(context.Background(), "a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := c.Since(start); got != 6*time.Millisecond {
		t.Fatalf("dial took %v, want 6ms from default route", got)
	}
}

func TestStreamBandwidthShaping(t *testing.T) {
	c, n := simWorld(t)
	// 80_000 bit/s => 10 kB/s => a 1000-byte body takes 100ms of tx time.
	n.SetRoute("a", "b", RouteProps{Latency: time.Millisecond, Bandwidth: 80_000})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	received := make(chan time.Time, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		io.ReadFull(conn, make([]byte, 1000))
		received <- c.Now()
	}()
	conn, err := n.Dial(context.Background(), "a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := c.Now()
	conn.Write(make([]byte, 1000))
	at := <-received
	if got := at.Sub(sent); got != 101*time.Millisecond {
		t.Fatalf("1000B at 10kB/s arrived after %v, want 101ms", got)
	}
}

// TestStreamDialCancelStopsHandshakeTimer checks that a dial abandoned by
// its context leaves no handshake timer behind on the clock.
func TestStreamDialCancelStopsHandshakeTimer(t *testing.T) {
	c := NewSimClock(epoch)
	n := NewStreamNetwork(c)
	n.SetRoute("a", "b", RouteProps{Latency: time.Hour})
	l, err := n.Listen("b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.AfterFunc(time.Minute, func() {}) // unrelated timer the dial must not disturb
	before := c.PendingTimers()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Dial(ctx, "a", "b:1"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.PendingTimers(); got != before {
		t.Fatalf("PendingTimers = %d after a cancelled dial, want %d", got, before)
	}
}
