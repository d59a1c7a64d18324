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
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
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
type Link struct {
	clock Clock
	sched DeliveryScheduler // clock's allocation-free scheduling capability, if any
	props LinkProps

	mu       sync.Mutex
	rng      *rand.Rand
	ends     [2]func([]byte) bool
	nextFree [2]time.Time // when the transmitter in each direction frees up
	stats    [2]LinkStats
}

// NewLink creates a link with the given properties. The seed drives loss and
// jitter so scenarios are reproducible.
func NewLink(clock Clock, props LinkProps, seed int64) *Link {
	sched, _ := clock.(DeliveryScheduler)
	return &Link{
		clock: clock,
		sched: sched,
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
// LossRate 1, a reroute is a latency change.
func (l *Link) SetProps(props LinkProps) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.props = props
}

// Attach registers the receiver for packets arriving at the given end (0 or
// 1). Attach must be called for both ends before traffic flows toward them.
//
// recv runs synchronously on the goroutine that fires the delivery and
// reports mayWake: it must return true whenever handling the packet may have
// made a goroutine runnable, and may return false only when it did nothing
// of the kind (a router forwarding the packet onward, or dropping it). A
// SimClock's auto-advancer skips its quiescence window after an instant in
// which every delivery returned false; see DeliveryScheduler.
func (l *Link) Attach(end int, recv func(pkt []byte) (mayWake bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ends[end] = recv
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
	to := 1 - from
	l.mu.Lock()
	recv := l.ends[to]
	if recv == nil {
		l.mu.Unlock()
		PutBuf(pkt)
		return false
	}
	if l.props.MTU > 0 && len(pkt) > l.props.MTU {
		l.stats[from].TooBig++
		l.mu.Unlock()
		PutBuf(pkt)
		return false
	}
	if l.props.LossRate > 0 && l.rng.Float64() < l.props.LossRate {
		l.stats[from].Lost++
		l.mu.Unlock()
		PutBuf(pkt)
		return false
	}
	now := l.clock.Now()
	start := now
	if l.nextFree[from].After(start) {
		start = l.nextFree[from]
	}
	var tx time.Duration
	if l.props.Bandwidth > 0 {
		tx = time.Duration(int64(len(pkt)) * 8 * int64(time.Second) / l.props.Bandwidth)
	}
	l.nextFree[from] = start.Add(tx)
	delay := start.Sub(now) + tx + l.props.Latency
	if l.props.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(l.props.Jitter)))
	}
	l.stats[from].Delivered++
	l.stats[from].Bytes += uint64(len(pkt))
	l.mu.Unlock()

	if l.sched != nil {
		l.sched.ScheduleDelivery(delay, recv, pkt)
	} else {
		l.clock.AfterFunc(delay, func() { recv(pkt) })
	}
	return true
}

// Stats returns a snapshot of the transmit statistics for the given end.
func (l *Link) Stats(from int) LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats[from]
}
