// Package snet provides the SCION host networking stack: UDP-like datagram
// sockets bound to (ISD-AS, host, port) endpoints, sending over caller-chosen
// paths and receiving the reply path alongside each datagram.
//
// "Since SCION local AS communication is based on UDP, SCION-aware
// applications can operate without OS support" (paper §5.1) — snet is that
// user-space stack.
package snet

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// Datagram is one received SCION/UDP datagram. A socket's handler (see
// SetHandler) gets it by value, built on the delivery's stack, so a
// delivered datagram costs no heap object.
type Datagram struct {
	// Payload is the UDP payload. It aliases the pooled wire buffer and is
	// valid only during the handler call; the handler may rewrite it in
	// place (squic decrypts 1-RTT packets there).
	Payload []byte
	// Src is the remote endpoint.
	Src addr.UDPAddr
	// ReplyPath leads back to Src (the traversed path reversed).
	ReplyPath *segment.Path
}

// Dispatcher demultiplexes an AS's inbound traffic to its hosts; it is the
// AS-internal delivery fabric between the border router and host stacks.
type Dispatcher struct {
	router *dataplane.Router
	clock  netsim.Clock

	mu    sync.RWMutex
	hosts map[netip.Addr]*Stack
}

// NewDispatcher creates the dispatcher for router's AS and installs it as
// the router's delivery handler. An AS has one dispatcher: it panics if
// router already has a delivery handler, since replacing it would silently
// orphan the stacks of the dispatcher installed first.
func NewDispatcher(router *dataplane.Router, clock netsim.Clock) *Dispatcher {
	if router.HasDeliveryHandler() {
		panic(fmt.Sprintf("snet: router of %s already has a delivery handler", router.IA()))
	}
	d := &Dispatcher{router: router, clock: clock, hosts: make(map[netip.Addr]*Stack)}
	router.SetDeliveryHandler(d.deliver)
	return d
}

// Host returns (creating if needed) the stack for a host IP in this AS.
func (d *Dispatcher) Host(ip netip.Addr) *Stack {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.hosts[ip]; ok {
		return s
	}
	s := &Stack{
		local:  addr.Addr{IA: d.router.IA(), Host: ip},
		router: d.router,
		clock:  d.clock,
		conns:  make(map[uint16]*Conn),
	}
	d.hosts[ip] = s
	return s
}

// deliver is the router's delivery handler: it hands pkt to its host's
// stack and returns the stack's verdict on whether a goroutine woke.
func (d *Dispatcher) deliver(pkt *dataplane.Packet) (woke bool) {
	d.mu.RLock()
	host := d.hosts[pkt.Dst.Host]
	d.mu.RUnlock()
	if host == nil {
		pkt.Release()
		return false
	}
	return host.deliver(pkt)
}

// Stack is one host's SCION socket table.
type Stack struct {
	local  addr.Addr
	router *dataplane.Router
	clock  netsim.Clock

	mu        sync.Mutex
	conns     map[uint16]*Conn
	ephemeral uint16
}

// Local returns the host's SCION address.
func (s *Stack) Local() addr.Addr { return s.local }

// Clock returns the stack's clock, shared by transports built on top.
func (s *Stack) Clock() netsim.Clock { return s.clock }

// errors
var (
	ErrPortInUse = errors.New("snet: port in use")
	ErrClosed    = errors.New("snet: connection closed")
)

const ephemeralBase = 32768

// Listen opens a datagram socket on the given port; port 0 allocates an
// ephemeral one.
func (s *Stack) Listen(port uint16) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port == 0 {
		for i := 0; i < 65536-ephemeralBase; i++ {
			cand := ephemeralBase + (s.ephemeral+uint16(i))%(65535-ephemeralBase)
			if _, ok := s.conns[cand]; !ok {
				s.ephemeral = cand - ephemeralBase + 1
				port = cand
				break
			}
		}
		if port == 0 {
			return nil, fmt.Errorf("snet: no free ephemeral ports on %s", s.local)
		}
	} else if _, ok := s.conns[port]; ok {
		return nil, fmt.Errorf("%w: %s:%d", ErrPortInUse, s.local, port)
	}
	c := &Conn{stack: s, local: addr.UDPAddr{Addr: s.local, Port: port}}
	s.conns[port] = c
	return c, nil
}

// deliver hands pkt to the handler of the socket bound to its destination
// port and reports the handler's verdict on whether a goroutine woke. A
// packet for an unbound port, or for a socket with no handler, is dropped
// and wakes nobody.
//
// The handler runs synchronously in the delivery (timer) context, keeping
// the causal cascade of a virtual instant complete before time advances.
// The payload may alias the router's leased wire buffer, released right
// after the handler returns — hence the SetHandler contract that handlers
// copy anything they keep (squic even decrypts it in place).
func (s *Stack) deliver(pkt *dataplane.Packet) (woke bool) {
	s.mu.Lock()
	c := s.conns[pkt.Dst.Port]
	s.mu.Unlock()
	if c == nil {
		pkt.Release()
		return false
	}
	c.mu.Lock()
	h := c.handler
	if h == nil {
		c.mu.Unlock()
		pkt.Release()
		return false
	}
	dg := Datagram{Payload: pkt.Payload, Src: pkt.Src, ReplyPath: c.replyPathLocked(pkt)}
	c.mu.Unlock()
	woke = h(dg)
	pkt.Release()
	return woke
}

// Conn is a SCION datagram socket.
type Conn struct {
	stack *Stack
	local addr.UDPAddr

	mu      sync.Mutex
	handler func(Datagram) bool
	closed  bool
	// replyPaths memoises the reply paths of recently seen inbound paths,
	// replaced round robin from replyNext: a socket hears from few paths at
	// a time, so most datagrams reuse a path instead of reversing a fresh
	// one, and the path's memoised fingerprint and header template stay
	// warm. Paths are immutable, so datagrams share them.
	replyPaths [replyPathSlots]replyPathEntry
	replyNext  int
}

// replyPathSlots is how many inbound paths a socket remembers.
const replyPathSlots = 8

// replyPathEntry maps one inbound path (source and destination AS and the
// traversed hops) to its reply path.
type replyPathEntry struct {
	src, dst addr.IA
	hops     []segment.Hop
	path     *segment.Path
}

// replyPathLocked returns the reply path of a delivered packet: the
// memoised one if the socket has seen the packet's path, else a fresh
// pkt.ReplyPath(), remembered in place of the oldest entry. The caller
// holds c.mu.
func (c *Conn) replyPathLocked(pkt *dataplane.Packet) *segment.Path {
	for i := range c.replyPaths {
		e := &c.replyPaths[i]
		if e.path != nil && e.src == pkt.Src.IA && e.dst == pkt.Dst.IA && slices.Equal(e.hops, pkt.Hops) {
			return e.path
		}
	}
	rp := pkt.ReplyPath()
	c.replyPaths[c.replyNext] = replyPathEntry{src: pkt.Src.IA, dst: pkt.Dst.IA, hops: slices.Clone(pkt.Hops), path: rp}
	c.replyNext = (c.replyNext + 1) % replyPathSlots
	return rp
}

// SetHandler installs h as the socket's receiver: every incoming datagram is
// handed to h synchronously, in the delivery context, which keeps
// virtual-time experiments deterministic; h must not block. Passing nil
// detaches the handler, and until another is set the socket drops what it
// receives.
//
// The datagram is passed by value, so delivering it allocates nothing; h may
// take its address but must not keep the pointer past the call. Its Payload
// is only valid for the duration of the call — it may alias a pooled wire
// buffer that is recycled when h returns. Handlers may modify it in place
// (squic decrypts it there); handlers that keep payload bytes must copy
// them. The ReplyPath may be shared with other datagrams of the socket and
// must not be modified.
//
// h reports woke: true whenever handling the datagram may have made a
// goroutine runnable (a condition broadcast with a waiter, a channel send, a
// teardown), false only when it certainly did not. The verdict travels up
// through the router to the link (see dataplane.DeliveryHandler); after an
// instant in which every delivery returned false, a virtual clock's
// auto-advancer moves on without waiting for goroutines to settle, so a
// handler that wakes a goroutine and returns false lets virtual time run
// ahead of it.
func (c *Conn) SetHandler(h func(Datagram) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

// LocalAddr returns the bound endpoint.
func (c *Conn) LocalAddr() addr.UDPAddr { return c.local }

// WriteTo sends payload to dst over the given path. The path's source must
// be the local AS; for AS-local destinations an empty path is allowed. The
// datagram (header included) must fit the path MTU or the first link will
// drop it; callers can budget with MaxPayload. WriteTo does not keep payload
// after it returns, so callers may reuse the buffer at once.
func (c *Conn) WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	if path == nil {
		path = &segment.Path{Src: c.local.IA, Dst: dst.IA}
	}
	if len(path.Hops) > 0 && path.Hops[0].IA != c.local.IA {
		return fmt.Errorf("snet: path starts at %s, local AS is %s", path.Hops[0].IA, c.local.IA)
	}
	if len(path.Hops) > 1 {
		if tmpl, err := dataplane.TemplateFor(path); err == nil {
			// The packet stays on this stack: InjectTemplated keeps no
			// pointer to it (it copies the packet before falling back to
			// InjectLocal), so a templated send allocates nothing.
			pkt := dataplane.Packet{Src: c.local, Dst: dst, Hops: path.Hops, Payload: payload}
			return c.stack.router.InjectTemplated(&pkt, tmpl)
		}
	}
	return c.stack.router.InjectLocal(&dataplane.Packet{Src: c.local, Dst: dst, Hops: path.Hops, Payload: payload})
}

// conservativeMTU is assumed for paths without MTU metadata — reply paths
// reconstructed from received packets carry hops but no decoration. 1280 is
// the SCION (and IPv6) minimum MTU assumption.
const conservativeMTU = 1280

// MaxPayload returns the largest payload WriteTo can send over path without
// exceeding its MTU. Paths with unknown MTU are budgeted conservatively;
// AS-local (nil or empty) paths are effectively unconstrained.
func MaxPayload(path *segment.Path) int {
	if path == nil || len(path.Hops) == 0 {
		return 64 * 1024
	}
	mtu := path.Meta.MTU
	if mtu == 0 {
		mtu = conservativeMTU
	}
	n := mtu - dataplane.HeaderLen(path.Hops)
	if n < 0 {
		return 0
	}
	return n
}

// Close marks the socket closed, so WriteTo fails, and releases its port.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stack.mu.Lock()
	delete(c.stack.conns, c.local.Port)
	c.stack.mu.Unlock()
	return nil
}
