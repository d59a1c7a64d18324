package netsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// StreamNetwork models the legacy BGP/IP Internet: hosts dial reliable byte
// streams (TCP stand-ins) to named listeners, and each host pair has a single
// fixed route with configured one-way latency — there is no path choice,
// which is exactly the asymmetry the paper's Figure 5 exploits.
type StreamNetwork struct {
	clock Clock

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
func NewStreamNetwork(clock Clock) *StreamNetwork {
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

// Route returns the route properties between two hosts.
func (n *StreamNetwork) Route(a, b string) RouteProps {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.routes[routeKey(a, b)]; ok {
		return p
	}
	return n.def
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
	host, _, err := net.SplitHostPort(hostport)
	if err != nil {
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
		host:   host,
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
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("netsim dial %q: connection refused", hostport)
	}
	route := n.Route(fromHost, toHost)

	client, server := newStreamPair(n.clock, route,
		simAddr{"sim+tcp", fromHost + ":0"}, simAddr{"sim+tcp", hostport})

	// Connection establishment costs one RTT (SYN + SYN-ACK), like TCP.
	ready := make(chan struct{})
	stop := n.clock.AfterFunc(2*route.Latency, func() { close(ready) })
	select {
	case <-ctx.Done():
		stop()
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
	host   string
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
func newStreamPair(clock Clock, route RouteProps, aAddr, bAddr simAddr) (a, b *streamConn) {
	ab := newDelayBuffer(clock, route)
	ba := newDelayBuffer(clock, route)
	a = &streamConn{clock: clock, rd: ba, wr: ab, local: aAddr, remote: bAddr}
	b = &streamConn{clock: clock, rd: ab, wr: ba, local: bAddr, remote: aAddr}
	return a, b
}

// delayBuffer is a unidirectional byte channel whose writes become readable
// only after the route latency has elapsed on the clock.
type delayBuffer struct {
	clock Clock
	route RouteProps

	mu   sync.Mutex
	cond *sync.Cond
	// chunks queues the delivered writes, oldest first, each a copy the
	// buffer owns until a read has consumed all of it: chunks[head][off:]
	// is the next unread byte. Once drained, the queue restarts at the
	// array's front.
	chunks   [][]byte
	head     int
	off      int
	eofAt    bool // EOF delivered (all data before it already arrived)
	closed   bool // writer closed; EOF scheduled
	expired  bool // read deadline exceeded; readers fail until cleared
	nextFree time.Time
}

func newDelayBuffer(clock Clock, route RouteProps) *delayBuffer {
	d := &delayBuffer{clock: clock, route: route}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// write schedules len(p) bytes for delivery after latency (+ serialization).
func (d *delayBuffer) write(p []byte) (int, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, net.ErrClosed
	}
	now := d.clock.Now()
	start := now
	if d.nextFree.After(start) {
		start = d.nextFree
	}
	var tx time.Duration
	if d.route.Bandwidth > 0 {
		tx = time.Duration(int64(len(p)) * 8 * int64(time.Second) / d.route.Bandwidth)
	}
	d.nextFree = start.Add(tx)
	delay := start.Sub(now) + tx + d.route.Latency
	d.mu.Unlock()

	buf := make([]byte, len(p))
	copy(buf, p)
	d.clock.AfterFunc(delay, func() {
		d.mu.Lock()
		d.deliver(buf)
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	return len(p), nil
}

// deliver queues one arrived write; an empty one queues nothing, so a read
// never returns (0, nil). Called with mu held.
func (d *delayBuffer) deliver(b []byte) {
	if len(b) == 0 {
		return
	}
	if d.head > 0 && len(d.chunks) == cap(d.chunks) {
		// Slide the unread chunks to the front rather than grow the array
		// under a reader that never quite drains it.
		n := copy(d.chunks, d.chunks[d.head:])
		clear(d.chunks[n:])
		d.chunks = d.chunks[:n]
		d.head = 0
	}
	d.chunks = append(d.chunks, b)
}

// closeWrite schedules EOF after all in-flight data.
func (d *delayBuffer) closeWrite() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	now := d.clock.Now()
	delay := d.route.Latency
	if d.nextFree.After(now) {
		delay += d.nextFree.Sub(now)
	}
	d.mu.Unlock()
	d.clock.AfterFunc(delay, func() {
		d.mu.Lock()
		d.eofAt = true
		d.cond.Broadcast()
		d.mu.Unlock()
	})
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
	clock  Clock
	rd     *delayBuffer
	wr     *delayBuffer
	local  simAddr
	remote simAddr

	mu           sync.Mutex
	closed       bool
	cancelRead   func() bool
	writeExpired bool
}

// Read implements net.Conn.
func (c *streamConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()
	return c.rd.read(p)
}

// Write implements net.Conn.
func (c *streamConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	expired := c.writeExpired
	c.mu.Unlock()
	if expired {
		return 0, errDeadline
	}
	return c.wr.write(p)
}

// Close implements net.Conn: it half-closes our write side (peer sees EOF
// after in-flight data) and unblocks local readers.
func (c *streamConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.wr.closeWrite()
	// Unblock any local reader with EOF semantics.
	c.rd.mu.Lock()
	c.rd.eofAt = true
	c.rd.cond.Broadcast()
	c.rd.mu.Unlock()
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
	if c.cancelRead != nil {
		c.cancelRead()
		c.cancelRead = nil
	}
	c.rd.setExpired(false)
	if t.IsZero() {
		return nil
	}
	d := t.Sub(c.clock.Now())
	if d <= 0 {
		c.rd.setExpired(true)
		return nil
	}
	rd := c.rd
	c.cancelRead = c.clock.AfterFunc(d, func() { rd.setExpired(true) })
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block in the simulator,
// so this only matters for already-expired deadlines.
func (c *streamConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeExpired = !t.IsZero() && !t.After(c.clock.Now())
	return nil
}

var _ net.Conn = (*streamConn)(nil)
var _ net.Listener = (*StreamListener)(nil)

// ErrUseOfClosedConn mirrors the stdlib sentinel for callers that need it.
var ErrUseOfClosedConn = errors.New("use of closed netsim connection")
