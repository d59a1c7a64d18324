package squic

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/snet"
)

// Dial establishes a client connection to remote over the given path,
// expecting the server to prove ownership of serverName's key (looked up in
// cfg.Pool). The PacketConn is owned by the connection and closed with it.
func Dial(pconn PacketConn, remote addr.UDPAddr, path *segment.Path, serverName string, cfg *Config) (*Conn, error) {
	return DialContext(context.Background(), pconn, remote, path, serverName, cfg)
}

// DialContext is Dial with a cancelable handshake: canceling ctx mid-dial
// tears the pending connection down promptly and returns ctx's error, rather
// than letting the handshake run to its timeout. Racing dialers depend on
// this to discard losers the instant a winner completes. Cancellation after
// the handshake has completed does not affect the established connection.
func DialContext(ctx context.Context, pconn PacketConn, remote addr.UDPAddr, path *segment.Path, serverName string, cfg *Config) (*Conn, error) {
	c := newConn(pconn, cfg.withDefaults(), true)
	c.ownsPconn = true
	if err := c.dial(ctx, remote, path, serverName); err != nil {
		pconn.Close()
		return nil, fmt.Errorf("squic: dialing %s: %w", remote, err)
	}
	return c, nil
}

// Listener accepts squic connections on one PacketConn, demultiplexing by
// connection ID.
type Listener struct {
	pconn PacketConn
	cfg   *Config

	acceptCh chan *Conn
	done     chan struct{}

	mu     sync.Mutex
	conns  map[uint64]*Conn
	onConn func(*Conn)
	closed bool
}

// Listen serves connections on pconn; cfg.Identity must be set.
func Listen(pconn PacketConn, cfg *Config) (*Listener, error) {
	c := cfg.withDefaults()
	if c.Identity == nil {
		return nil, errors.New("squic: Listen requires an Identity")
	}
	l := &Listener{
		pconn:    pconn,
		cfg:      c,
		acceptCh: make(chan *Conn, 64),
		done:     make(chan struct{}),
		conns:    make(map[uint64]*Conn),
	}
	pconn.SetHandler(l.handleDatagram)
	return l, nil
}

// Addr returns the listening endpoint.
func (l *Listener) Addr() net.Addr { return l.pconn.LocalAddr() }

// ConnCount returns the number of live connections the listener tracks —
// an observability hook for tests and operators watching for zombie
// connections from abandoned handshakes.
func (l *Listener) ConnCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// OnConn installs hook, invoked once for every connection accepted from now
// on, right after it is queued for Accept. The hook runs on the packet
// delivery path and must not block; telemetry planes use it to attach RTT
// observers and reply-path steering to serving connections.
func (l *Listener) OnConn(hook func(*Conn)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onConn = hook
}

// Accept blocks for the next handshaken connection.
func (l *Listener) Accept() (*Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, ErrConnClosed
	}
}

// Close stops accepting and tears down every connection.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]*Conn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	close(l.done)
	l.pconn.Close()
	for _, c := range conns {
		c.teardown(0, "listener closed", ErrConnClosed, true)
	}
	return nil
}

// handleDatagram demultiplexes one datagram by connection ID. Like
// Conn.handleDatagram it takes the datagram by value and lends its address
// only to calls that keep fields, never the pointer, and it reports the same
// verdict: a handshake packet counts as a wake (a new connection goes to
// Accept, or is torn down), a 1-RTT packet as its connection decides.
func (l *Listener) handleDatagram(dg snet.Datagram) (woke bool) {
	hdr, body, err := parseHeader(dg.Payload)
	if err != nil {
		return false
	}
	switch hdr.ptype {
	case ptInitial:
		l.mu.Lock()
		existing := l.conns[hdr.connID]
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return false
		}
		conn, isNew := serverHandleInitial(l.pconn, l.cfg, hdr, body, &dg, existing)
		if !isNew || conn == nil {
			return true
		}
		id := hdr.connID
		conn.onClose = func() { l.remove(id) }
		l.mu.Lock()
		l.conns[id] = conn
		l.mu.Unlock()
		conn.armConfirmTimeout()
		select {
		case l.acceptCh <- conn:
			l.mu.Lock()
			hook := l.onConn
			l.mu.Unlock()
			if hook != nil {
				hook(conn)
			}
		default:
			conn.teardown(6, "accept queue full", ErrConnClosed, true)
		}
		return true
	case ptOneRTT:
		l.mu.Lock()
		conn := l.conns[hdr.connID]
		l.mu.Unlock()
		if conn != nil {
			return conn.handleOneRTT(hdr, &dg)
		}
	}
	return false
}

func (l *Listener) remove(connID uint64) {
	l.mu.Lock()
	delete(l.conns, connID)
	l.mu.Unlock()
}
