package netsim

import (
	"bytes"
	"context"
	"fmt"
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

// manualPair connects two stream endpoints over a 1 ms route on a clock the
// test advances itself, so a write is readable exactly after Advance(1 ms).
func manualPair() (*SimClock, *streamConn, *streamConn) {
	c := NewSimClock(epoch)
	a, b := newStreamPair(c, RouteProps{Latency: time.Millisecond},
		simAddr{"sim+tcp", "a:0"}, simAddr{"sim+tcp", "b:1"})
	return c, a, b
}

// patterned returns n bytes starting at byte value from.
func patterned(from, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(from + i)
	}
	return b
}

// TestStreamReadsAcrossChunks: delivered writes are read back in order, and
// every Read returns as many delivered bytes as fit, crossing write
// boundaries, for reads smaller than, equal to and larger than a write. The
// empty write in the middle never surfaces.
func TestStreamReadsAcrossChunks(t *testing.T) {
	sizes := []int{7, 0, 7, 3, 7}
	for _, rsize := range []int{3, 7, 64} {
		t.Run(fmt.Sprintf("read%d", rsize), func(t *testing.T) {
			c, a, b := manualPair()
			var want []byte
			for _, n := range sizes {
				w := patterned(len(want), n)
				if _, err := a.Write(w); err != nil {
					t.Fatal(err)
				}
				want = append(want, w...)
			}
			c.Advance(time.Millisecond)
			var got []byte
			p := make([]byte, rsize)
			for len(got) < len(want) {
				n, err := b.Read(p)
				if err != nil {
					t.Fatalf("Read after %d bytes: %v", len(got), err)
				}
				if wantN := min(rsize, len(want)-len(got)); n != wantN {
					t.Fatalf("Read after %d bytes returned %d, want %d", len(got), n, wantN)
				}
				got = append(got, p[:n]...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read %v, want %v", got, want)
			}
		})
	}
}

// TestStreamQueueUndrained: a reader that falls behind and never drains
// the queue still reads every byte in order, and the queue's array stays
// sized to the chunks still unread, not to every write ever delivered.
func TestStreamQueueUndrained(t *testing.T) {
	const writes, wsize, rsize = 200, 10, 7
	c, a, b := manualPair()
	var got []byte
	p := make([]byte, rsize)
	for i := range writes {
		a.Write(patterned(i*wsize, wsize))
		c.Advance(time.Millisecond)
		n, err := b.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if pending := len(b.rd.chunks) - b.rd.head; cap(b.rd.chunks) > 2*pending+1 {
		t.Fatalf("queue array holds %d slots for %d unread chunks", cap(b.rd.chunks), pending)
	}
	a.Close()
	c.Advance(time.Millisecond)
	rest, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, rest...); !bytes.Equal(got, patterned(0, writes*wsize)) {
		t.Fatal("bytes out of order")
	}
}

// TestStreamZeroLengthWriteIsNotARead: an empty write delivers nothing, so
// the reader's next result is the EOF behind it, not (0, nil).
func TestStreamZeroLengthWriteIsNotARead(t *testing.T) {
	c, a, b := manualPair()
	if n, err := a.Write(nil); n != 0 || err != nil {
		t.Fatalf("Write(nil) = %d, %v", n, err)
	}
	c.Advance(time.Millisecond)
	a.Close()
	c.Advance(time.Millisecond)
	if n, err := b.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("Read = %d, %v; want 0, EOF", n, err)
	}
}

// TestStreamEOFAfterEveryChunk: EOF surfaces only once every delivered
// chunk has been read, whether the writer closed its conn or only its write
// side.
func TestStreamEOFAfterEveryChunk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(a *streamConn)
	}{
		{"Close", func(a *streamConn) { a.Close() }},
		{"closeWrite", func(a *streamConn) { a.wr.closeWrite() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, a, b := manualPair()
			var want []byte
			for _, n := range []int{5, 9, 2} {
				w := patterned(len(want), n)
				a.Write(w)
				want = append(want, w...)
			}
			tc.close(a)
			c.Advance(time.Millisecond)
			got, err := io.ReadAll(b)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadAll = %v, %v; want %v", got, err, want)
			}
		})
	}
	// The reader's own Close marks EOF at once: the chunks it had not read
	// went back to the pool, so a reader still inside the buffer sees EOF.
	c, a, b := manualPair()
	a.Write(patterned(0, 4))
	a.Write(patterned(4, 4))
	c.Advance(time.Millisecond)
	b.Close()
	got, err := io.ReadAll(readerFunc(b.rd.read))
	if err != nil || len(got) != 0 {
		t.Fatalf("read after local Close = %v, %v; want EOF", got, err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestStreamReadDeliveredAllocs: reading data that has already arrived
// allocates nothing, across chunk boundaries and queue resets.
func TestStreamReadDeliveredAllocs(t *testing.T) {
	c, a, b := manualPair()
	for i := range 64 {
		a.Write(patterned(i, 100))
	}
	c.Advance(time.Millisecond)
	p := make([]byte, 50)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.Read(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Read of delivered data: %v allocs/op, want 0", n)
	}
}

// TestStreamLeasesComeBack: every stream chunk is a pool lease, and each
// one comes back. A non-empty write takes exactly one lease and an empty
// write none; a read returns each chunk it finishes, the reader's Close
// returns the chunks it left unread, and a chunk that arrives after that
// Close goes straight back.
func TestStreamLeasesComeBack(t *testing.T) {
	sizes := []int{0, 1, 200, 1500, 4096, 70000}
	c, a, b := manualPair()
	before := ReadPoolStats()
	for _, n := range sizes {
		if _, err := a.Write(patterned(0, n)); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(time.Millisecond)
	// Consume the 1- and 200-byte chunks and part of the 1500-byte one.
	if _, err := io.ReadFull(b, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	for _, n := range sizes {
		a.Write(patterned(0, n))
	}
	a.Close()
	for c.AdvanceToNext() {
	}
	d := ReadPoolStats()
	gets, puts := d.Gets-before.Gets, d.Puts-before.Puts
	if want := uint64(2 * (len(sizes) - 1)); gets != want {
		t.Errorf("%d leases taken for %d non-empty writes", gets, want)
	}
	if gets != puts {
		t.Errorf("%d leases taken, %d returned", gets, puts)
	}
}

// TestStreamRoundTripAllocs: in the steady state a 4 KiB write, its
// delivery and its read allocate nothing: the chunk is a lease the read
// returns for the next write to take.
func TestStreamRoundTripAllocs(t *testing.T) {
	c, a, b := manualPair()
	w, p := patterned(0, 4096), make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.Write(w); err != nil {
			t.Fatal(err)
		}
		c.Advance(time.Millisecond)
		if _, err := io.ReadFull(b, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("4 KiB write, deliver and read: %v allocs/op, want 0", n)
	}
}
