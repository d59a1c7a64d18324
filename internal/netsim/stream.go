package netsim

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// StreamNetwork models the legacy BGP/IP Internet: hosts dial reliable byte
// streams (TCP stand-ins) to named listeners, and each host pair has a single
// fixed route with configured one-way latency — there is no path choice,
// which is exactly the asymmetry the paper's Figure 5 exploits.
type StreamNetwork struct {
	clock *SimClock

	mu        sync.Mutex
	listeners map[string]*StreamListener // key "host:port"
	routes    map[[2]string]RouteProps   // key ordered host pair
	def       RouteProps
}

// RouteProps describes the single legacy route between two hosts.
type RouteProps struct {
	// Latency is the one-way delay between the hosts.
	Latency time.Duration
	// Bandwidth in bits per second; zero means unlimited.
	Bandwidth int64
}

// NewStreamNetwork creates an empty legacy-IP network on the given clock.
func NewStreamNetwork(clock *SimClock) *StreamNetwork {
	return &StreamNetwork{
		clock:     clock,
		listeners: make(map[string]*StreamListener),
		routes:    make(map[[2]string]RouteProps),
	}
}

// SetDefaultRoute sets the route used for host pairs without an explicit
// route.
func (n *StreamNetwork) SetDefaultRoute(p RouteProps) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = p
}

// SetRoute fixes the legacy route between two hosts (order-insensitive).
func (n *StreamNetwork) SetRoute(a, b string, p RouteProps) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routes[routeKey(a, b)] = p
}

func routeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Listen opens a listener at "host:port". The host name identifies the
// machine for routing purposes.
func (n *StreamNetwork) Listen(hostport string) (*StreamListener, error) {
	if _, _, err := net.SplitHostPort(hostport); err != nil {
		return nil, fmt.Errorf("netsim listen %q: %w", hostport, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[hostport]; ok {
		return nil, fmt.Errorf("netsim listen %q: address in use", hostport)
	}
	l := &StreamListener{
		net:    n,
		addr:   simAddr{network: "sim+tcp", addr: hostport},
		accept: make(chan *streamConn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[hostport] = l
	return l, nil
}

// Dial connects from the named local host to "host:port", honoring ctx
// cancellation while the (latency-delayed) connection establishes.
func (n *StreamNetwork) Dial(ctx context.Context, fromHost, hostport string) (net.Conn, error) {
	toHost, _, err := net.SplitHostPort(hostport)
	if err != nil {
		return nil, fmt.Errorf("netsim dial %q: %w", hostport, err)
	}
	n.mu.Lock()
	l := n.listeners[hostport]
	route, ok := n.routes[routeKey(fromHost, toHost)]
	if !ok {
		route = n.def
	}
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("netsim dial %q: connection refused", hostport)
	}

	client, server := newStreamPair(n.clock, route,
		simAddr{"sim+tcp", fromHost + ":0"}, simAddr{"sim+tcp", hostport})

	// Connection establishment costs one RTT (SYN + SYN-ACK), like TCP.
	ready := make(chan struct{})
	t := n.clock.AfterFunc(2*route.Latency, func() { close(ready) })
	select {
	case <-ctx.Done():
		t.Stop()
		return nil, ctx.Err()
	case <-ready:
	}
	select {
	case l.accept <- server:
	case <-l.done:
		client.Close()
		return nil, fmt.Errorf("netsim dial %q: connection refused", hostport)
	case <-ctx.Done():
		client.Close()
		return nil, ctx.Err()
	}
	return client, nil
}

// StreamListener accepts latency-shaped stream connections.
type StreamListener struct {
	net    *StreamNetwork
	addr   simAddr
	accept chan *streamConn
	done   chan struct{}
	once   sync.Once
}

// Accept implements net.Listener.
func (l *StreamListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *StreamListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *StreamListener) Addr() net.Addr { return l.addr }

type simAddr struct {
	network string
	addr    string
}

func (a simAddr) Network() string { return a.network }
func (a simAddr) String() string  { return a.addr }

// newStreamPair builds two connected latency-shaped stream endpoints.
func newStreamPair(clock *SimClock, route RouteProps, aAddr, bAddr simAddr) (a, b *streamConn) {
	ab := newDelayBuffer(clock, route)
	ba := newDelayBuffer(clock, route)
	a = &streamConn{rd: ba, wr: ab, local: aAddr, remote: bAddr}
	b = &streamConn{rd: ab, wr: ba, local: bAddr, remote: aAddr}
	return a, b
}

// delayBuffer is a unidirectional byte channel whose writes become readable
// only after the route latency has elapsed on the clock. The writes in
// flight, and the EOF behind them, are entries of a queue on the clock,
// sent the way a Link sends a packet.
type delayBuffer struct {
	clock *SimClock
	route RouteProps

	mu   sync.Mutex //lint:lockorder netsimstream before simclock
	cond *sync.Cond
	// chunks queues the delivered writes, oldest first, each a pool lease
	// the buffer owns until a read has consumed all of it:
	// chunks[head][off:] is the next unread byte. Once drained, the queue
	// restarts at the array's front.
	chunks  [][]byte
	head    int
	off     int
	eofAt   bool // EOF delivered (all data before it already arrived)
	closed  bool // writer closed; EOF sent
	expired bool // read deadline exceeded; readers fail until cleared
	// released is set once the reading end closed: its unread chunks went
	// back to the pool, and so does every chunk that arrives after.
	released bool
	// wire holds the writes in flight, then a nil entry for the EOF. It is
	// guarded by the clock's lock; a send holds mu too, so nothing follows
	// the EOF.
	wire queue
}

func newDelayBuffer(clock *SimClock, route RouteProps) *delayBuffer {
	d := &delayBuffer{clock: clock, route: route}
	d.cond = sync.NewCond(&d.mu)
	d.wire.recv = d.arrive
	return d
}

// write sends a leased copy of p for delivery after latency
// (+ serialization); the reader returns the lease once it has read it all.
// An empty write sends nothing, so a read never returns (0, nil).
func (d *delayBuffer) write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, net.ErrClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	buf := GetBuf(len(p)) // never nil, so never mistaken for the EOF
	copy(buf, p)
	d.clock.send(&d.wire, d.route.Bandwidth, d.route.Latency, buf)
	return len(p), nil
}

// arrive receives one entry off the wire: the EOF (nil), or a write, which
// goes straight back to the pool if the reading end has closed.
func (d *delayBuffer) arrive(b []byte) (mayWake bool) {
	d.mu.Lock()
	if b == nil {
		d.eofAt = true
	} else if d.released {
		PutBuf(b)
	} else {
		if d.head > 0 && len(d.chunks) == cap(d.chunks) {
			// Slide the unread chunks to the front rather than grow the
			// array under a reader that never quite drains it.
			n := copy(d.chunks, d.chunks[d.head:])
			clear(d.chunks[n:])
			d.chunks = d.chunks[:n]
			d.head = 0
		}
		d.chunks = append(d.chunks, b)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return true
}

// closeWrite sends EOF behind all in-flight data.
func (d *delayBuffer) closeWrite() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.clock.send(&d.wire, 0, d.route.Latency, nil)
}

// read blocks until data, EOF, or the deadline watcher interrupts.
func (d *delayBuffer) read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.head == len(d.chunks) {
		if d.eofAt {
			return 0, io.EOF
		}
		if d.expired {
			return 0, errDeadline
		}
		d.cond.Wait()
	}
	n := 0
	for n < len(p) && d.head < len(d.chunks) {
		c := d.chunks[d.head]
		k := copy(p[n:], c[d.off:])
		n += k
		d.off += k
		if d.off == len(c) {
			PutBuf(c)
			d.chunks[d.head] = nil
			d.head++
			d.off = 0
		}
	}
	if d.head == len(d.chunks) {
		d.chunks = d.chunks[:0]
		d.head = 0
	}
	return n, nil
}

// release closes the reading end: it returns the unread chunks to the
// pool, sends every later arrival back too, and unblocks local readers
// with EOF semantics.
func (d *delayBuffer) release() {
	d.mu.Lock()
	for _, c := range d.chunks[d.head:] {
		PutBuf(c)
	}
	clear(d.chunks)
	d.chunks, d.head, d.off = d.chunks[:0], 0, 0
	d.released = true
	d.eofAt = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// setExpired flips the read-deadline flag and wakes blocked readers.
func (d *delayBuffer) setExpired(v bool) {
	d.mu.Lock()
	d.expired = v
	d.cond.Broadcast()
	d.mu.Unlock()
}

var errDeadline = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: i/o deadline exceeded" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// streamConn is a latency-shaped net.Conn over a pair of delayBuffers.
type streamConn struct {
	rd     *delayBuffer
	wr     *delayBuffer
	local  simAddr
	remote simAddr

	closed       atomic.Bool
	writeExpired atomic.Bool

	mu        sync.Mutex // guards readTimer
	readTimer Timer
}

// Read implements net.Conn.
func (c *streamConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return c.rd.read(p)
}

// Write implements net.Conn.
func (c *streamConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	if c.writeExpired.Load() {
		return 0, errDeadline
	}
	return c.wr.write(p)
}

// Close implements net.Conn: it half-closes our write side (peer sees EOF
// after in-flight data) and unblocks local readers.
func (c *streamConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.wr.closeWrite()
	c.rd.release()
	return nil
}

// LocalAddr implements net.Conn.
func (c *streamConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *streamConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *streamConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. A zero time clears the deadline.
func (c *streamConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readTimer != nil {
		c.readTimer.Stop()
		c.readTimer = nil
	}
	c.rd.setExpired(false)
	if t.IsZero() {
		return nil
	}
	d := t.Sub(c.rd.clock.Now())
	if d <= 0 {
		c.rd.setExpired(true)
		return nil
	}
	rd := c.rd
	c.readTimer = c.rd.clock.AfterFunc(d, func() { rd.setExpired(true) })
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block in the simulator,
// so this only matters for already-expired deadlines.
func (c *streamConn) SetWriteDeadline(t time.Time) error {
	c.writeExpired.Store(!t.IsZero() && !t.After(c.rd.clock.Now()))
	return nil
}

var _ net.Conn = (*streamConn)(nil)
var _ net.Listener = (*StreamListener)(nil)
