package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// LinkProps describes the physical characteristics of a simulated link.
type LinkProps struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bits per second; zero means unlimited. Packets are
	// serialized FIFO per direction, modelling transmission delay and
	// queueing.
	Bandwidth int64
	// LossRate is the independent per-packet drop probability in [0, 1].
	LossRate float64
	// MTU is the maximum packet size in bytes; larger packets are dropped.
	// Zero means unlimited.
	MTU int
}

// LinkStats counts per-direction packet outcomes on a link.
type LinkStats struct {
	Delivered uint64
	Lost      uint64
	TooBig    uint64
	Bytes     uint64
}

// Link is a bidirectional point-to-point datagram link between two attached
// receivers. Ends are numbered 0 and 1. Sends never block: delivery is
// scheduled on the link's clock after serialization + propagation delay, and
// lossy links silently drop.
//
// Each direction is a FIFO queue on the clock (see SimClock): a packet in
// flight is an entry in its direction's ring, not a timer of its own, and
// packets arrive in the order they were sent.
type Link struct {
	clock *SimClock

	mu    sync.Mutex //lint:lockorder netsimlink before simclock
	props LinkProps
	rng   *rand.Rand
	stats [2]LinkStats
	// dirs[from] queues the packets in flight from end from to the other
	// end. Attach writes a direction's recv holding both mu and the
	// clock's lock, so Send reads it under mu.
	dirs [2]queue
}

// NewLink creates a link with the given properties. The seed drives loss so
// scenarios are reproducible.
func NewLink(clock *SimClock, props LinkProps, seed int64) *Link {
	return &Link{
		clock: clock,
		props: props,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Props returns the link's current properties.
func (l *Link) Props() LinkProps {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.props
}

// SetProps replaces the link's properties, taking effect for every packet
// sent afterwards (in-flight packets keep their scheduled delivery). It is
// the simulation's lever for mid-run network events: a link failure is
// LossRate 1, a reroute is a latency change. A direction stays FIFO: if a
// lower latency would deliver a new packet before one already in flight,
// the new packet is held until that one's delivery instead.
func (l *Link) SetProps(props LinkProps) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.props = props
}

// Attach registers the receiver for packets arriving at the given end (0 or
// 1). Attach must be called for both ends before traffic flows toward them;
// a later Attach also redirects the packets already in flight.
//
// recv runs synchronously on the goroutine that fires the delivery and
// reports mayWake: it must return true whenever handling the packet may have
// made a goroutine runnable — sent on a channel, released a lock or
// condition a goroutine waits on, or ran code that could — and may return
// false only when it did nothing of the kind (a router forwarding the packet
// onward or dropping it, or a host stack below it consuming an ACK that no
// blocked reader or writer waited for). A router passes its host stack's
// verdict up (see dataplane.DeliveryHandler). A SimClock's auto-advancer
// skips its quiescence window after an instant in which every delivery
// returned false.
func (l *Link) Attach(end int, recv func(pkt []byte) (mayWake bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock.mu.Lock()
	l.dirs[1-end].recv = recv
	l.clock.mu.Unlock()
}

// Send transmits pkt from the given end toward the other. It reports whether
// the packet was accepted for (eventual) delivery; false means it was dropped
// by loss, MTU, or a missing receiver. The packet is copied (into a pooled
// buffer the receiver may Release, see SendOwned), so the caller may reuse
// its own buffer immediately.
func (l *Link) Send(from int, pkt []byte) bool {
	buf := GetBuf(len(pkt))
	copy(buf, pkt)
	return l.SendOwned(from, buf)
}

// SendOwned is Send with ownership transfer: the caller relinquishes pkt on
// call, whether or not it is accepted (dropped packets are returned to the
// buffer pool). Delivery hands ownership to the receiver, which must either
// PutBuf the buffer when done decoding or pass it on. This is the zero-copy
// path: a router can patch a received buffer in place and forward the very
// same bytes to the next link.
//
//lint:lease sink
func (l *Link) SendOwned(from int, pkt []byte) bool {
	l.mu.Lock()
	switch st := &l.stats[from]; {
	case l.dirs[from].recv == nil:
	case l.props.MTU > 0 && len(pkt) > l.props.MTU:
		st.TooBig++
	case l.props.LossRate > 0 && l.rng.Float64() < l.props.LossRate:
		st.Lost++
	default:
		st.Delivered++
		st.Bytes += uint64(len(pkt))
		bw, lat := l.props.Bandwidth, l.props.Latency
		l.mu.Unlock()
		l.clock.send(&l.dirs[from], bw, lat, pkt)
		return true
	}
	l.mu.Unlock()
	PutBuf(pkt)
	return false
}

// Stats returns a snapshot of the transmit statistics for the given end.
func (l *Link) Stats(from int) LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats[from]
}
