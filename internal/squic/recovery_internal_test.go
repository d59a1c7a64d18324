package squic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// stepClock is a manual clock whose timers never fire: the equivalence
// harness fires PTOs itself, so both implementations see the same events.
type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time                               { return c.now }
func (c *stepClock) Sleep(time.Duration)                          {}
func (c *stepClock) After(time.Duration) <-chan time.Time         { return nil }
func (c *stepClock) AfterFunc(time.Duration, func()) netsim.Timer { return stoppedTimer{} }
func (c *stepClock) Since(t time.Time) time.Duration              { return c.now.Sub(t) }

// stoppedTimer is a stepClock timer: it never fires, so Stop always stops it.
type stoppedTimer struct{}

func (stoppedTimer) Stop() bool { return true }

// refRecovery is the map-keyed ack and loss algorithm the packet-number
// ordered history replaced, kept as the reference oracle: every ack scans
// the whole in-flight map for covered packets, sorts them, then scans it
// again for threshold losses. It drives the congestion, RTT and requeue
// state of its own Conn; the map stands in for that Conn's history.
type refRecovery struct {
	c    *Conn
	sent map[uint64]sentPacket
}

// refCovers reports whether pn falls in one of ranges, by binary search.
func refCovers(ranges []ackRange, pn uint64) bool {
	lo, hi := 0, len(ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		switch r := ranges[mid]; {
		case pn < r.lo:
			hi = mid
		case pn > r.hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

func (r *refRecovery) ack(ranges []ackRange) (acked, lost []uint64) {
	c := r.c
	now := c.sinceEpoch()
	for pn := range r.sent {
		if refCovers(ranges, pn) {
			acked = append(acked, pn)
		}
	}
	slices.Sort(acked)
	for _, pn := range acked {
		sp := r.sent[pn]
		delete(r.sent, pn)
		c.inFlight -= sp.size
		if int64(pn) > c.largestAcked {
			c.largestAcked = int64(pn)
			c.sampleRTTLocked(now - sp.sentAt)
		}
		if c.cwnd < 4<<20 {
			c.cwnd += sp.size
		}
	}
	if len(acked) == 0 {
		return nil, nil
	}
	c.ptoBackoff = 0
	for pn := range r.sent {
		if c.largestAcked >= 0 && pn+3 <= uint64(c.largestAcked) {
			lost = append(lost, pn)
		}
	}
	slices.Sort(lost)
	for _, pn := range lost {
		sp := r.sent[pn]
		delete(r.sent, pn)
		c.inFlight -= sp.size
		c.queued = append(append(c.queued, sp.frame), sp.more...)
		if pn >= c.recoveryEnd {
			c.cwnd = maxInt(c.cwnd/2, 2*maxPacketSize)
			c.recoveryEnd = c.nextPN
		}
	}
	return acked, lost
}

func (r *refRecovery) pto() {
	c := r.c
	if len(r.sent) == 0 {
		return
	}
	if c.ptoBackoff < maxPTOBackoff {
		c.ptoBackoff++
	}
	pns := make([]uint64, 0, len(r.sent))
	for pn := range r.sent {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		sp := r.sent[pn]
		delete(r.sent, pn)
		c.inFlight -= sp.size
		c.queued = append(append(c.queued, sp.frame), sp.more...)
	}
}

// checkHistory asserts the history invariants: packet numbers strictly
// ascending, and inFlight equal to the sum of the history's sizes.
func checkHistory(t *testing.T, c *Conn) {
	t.Helper()
	sum := 0
	for i, sp := range c.sent {
		if i > 0 && sp.pn <= c.sent[i-1].pn {
			t.Fatalf("history not strictly ascending at %d: %d after %d", i, sp.pn, c.sent[i-1].pn)
		}
		sum += sp.size
	}
	if sum != c.inFlight {
		t.Fatalf("inFlight = %d, history sizes sum to %d", c.inFlight, sum)
	}
}

// checkFrameOwnership asserts the stream-frame ownership invariant: the
// bytes at one stream offset are queued or in flight in one packet, never
// both nor twice. Frames are values, so a copy left behind by a requeue or
// an ack would show as a second frame at the same offset.
func checkFrameOwnership(t *testing.T, c *Conn) {
	t.Helper()
	type at struct{ id, off uint64 }
	owned := make(map[at]string)
	own := func(f frame, where string) {
		if f.kind != ftStream {
			return
		}
		if prev, dup := owned[at{f.id, f.val}]; dup {
			t.Fatalf("stream frame at offset %d is %s and %s", f.val, prev, where)
		}
		owned[at{f.id, f.val}] = where
	}
	for _, f := range c.queued {
		own(f, "queued")
	}
	for _, sp := range c.sent {
		own(sp.frame, fmt.Sprintf("in flight in pn %d", sp.pn))
		for _, f := range sp.more {
			own(f, fmt.Sprintf("in flight in pn %d", sp.pn))
		}
	}
}

// recoveryHarness drives a real connection and the oracle through one seeded
// schedule of sends, acks and PTO fires, comparing them after every event.
// Packetization is held (established=false) while an ack or PTO is applied,
// so the frames it requeues can be compared before they are retransmitted.
type recoveryHarness struct {
	t     *testing.T
	rng   *rand.Rand
	clock *stepClock
	c     *Conn
	ref   refRecovery
	// rtts/refRTTs collect each side's flushed RTT samples.
	rtts, refRTTs []time.Duration
	// The simulated peer: packets still on the wire, its receive history,
	// and every ack frame it has sent (replayed as duplicate/stale acks).
	wire []uint64
	rcv  rangeSet
	acks [][]ackRange
	off  uint64
}

func newRecoveryHarness(t *testing.T, seed int64) *recoveryHarness {
	h := &recoveryHarness{
		t:     t,
		rng:   rand.New(rand.NewSource(seed)),
		clock: &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)},
	}
	h.c, _ = deadConn(t, h.clock)
	refConn, _ := deadConn(t, h.clock)
	refConn.epoch = h.c.epoch // the oracle reads the real side's sentAt offsets
	h.ref = refRecovery{c: refConn, sent: make(map[uint64]sentPacket)}
	h.c.OnRTTSampleBatch(func(rtts []time.Duration) { h.rtts = append(h.rtts, rtts...) })
	refConn.OnRTTSampleBatch(func(rtts []time.Duration) { h.refRTTs = append(h.refRTTs, rtts...) })
	return h
}

// flushLocked packetizes whatever is queued and mirrors the packets it
// produced into the oracle (sending is not under test; acking is).
func (h *recoveryHarness) flushLocked() {
	c := h.c
	first := c.nextPN
	c.established = true
	c.packetizeLocked()
	for _, sp := range c.sent {
		if sp.pn >= first {
			h.ref.sent[sp.pn] = sp
			h.ref.c.inFlight += sp.size
			h.wire = append(h.wire, sp.pn)
		}
	}
	h.ref.c.nextPN = c.nextPN
	checkFrameOwnership(h.t, c)
}

func (h *recoveryHarness) send() {
	h.clock.now = h.clock.now.Add(time.Duration(h.rng.Intn(20)) * time.Millisecond)
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := 1 + h.rng.Intn(6); n > 0; n-- {
		f := frame{kind: ftStream, val: h.off, data: make([]byte, 1+h.rng.Intn(400))}
		c.queueFrameLocked(f)
		h.off += uint64(len(f.data))
	}
	h.flushLocked()
}

// peerAck delivers part of the wire to the peer (the rest is dropped or
// stays in flight, i.e. reordered) and returns the peer's ack of it.
func (h *recoveryHarness) peerAck() []ackRange {
	h.rng.Shuffle(len(h.wire), func(i, j int) { h.wire[i], h.wire[j] = h.wire[j], h.wire[i] })
	still := h.wire[:0]
	for _, pn := range h.wire {
		switch p := h.rng.Float64(); {
		case p < 0.6:
			h.rcv.add(pn)
		case p < 0.7: // dropped
		default:
			still = append(still, pn)
		}
	}
	h.wire = still
	ranges := slices.Clone(h.rcv.ranges())
	h.acks = append(h.acks, ranges)
	return ranges
}

// randomAck acknowledges arbitrary ascending disjoint ranges, including
// packet numbers never sent or already resolved.
func (h *recoveryHarness) randomAck() []ackRange {
	var ranges []ackRange
	next := uint64(h.rng.Intn(int(h.c.nextPN) + 1))
	for n := 1 + h.rng.Intn(4); n > 0; n-- {
		lo := next + uint64(h.rng.Intn(8))
		hi := lo + uint64(h.rng.Intn(8))
		ranges = append(ranges, ackRange{lo: lo, hi: hi})
		next = hi + 2
	}
	return ranges
}

// apply runs one ack of ranges (or, if pto is set, a PTO fire) through both
// sides and compares everything it may change.
func (h *recoveryHarness) apply(ranges []ackRange, pto bool) {
	t, c, ref := h.t, h.c, h.ref.c
	c.mu.Lock()
	before := make(map[uint64]sentPacket, len(c.sent))
	for _, sp := range c.sent {
		before[sp.pn] = sp
	}
	c.established = false
	if !pto {
		c.handleAckLocked(ranges)
		wantAcked, wantLost := h.ref.ack(ranges)
		// Recover the real side's acked and lost sets from what left the
		// history: lost packets are exactly those whose frames were requeued
		// (a send's stream offsets are unique).
		requeued := make(map[uint64]bool)
		for _, fr := range c.queued {
			requeued[fr.val] = true
		}
		var gotAcked, gotLost []uint64
		for pn, sp := range before {
			switch {
			case slices.ContainsFunc(c.sent, func(x sentPacket) bool { return x.pn == pn }):
			case requeued[sp.frame.val]:
				gotLost = append(gotLost, pn)
			default:
				gotAcked = append(gotAcked, pn)
			}
		}
		slices.Sort(gotAcked)
		slices.Sort(gotLost)
		if !slices.Equal(gotAcked, wantAcked) {
			t.Fatalf("acked %v, oracle %v (ack %+v)", gotAcked, wantAcked, ranges)
		}
		if !slices.Equal(gotLost, wantLost) {
			t.Fatalf("lost %v, oracle %v (ack %+v)", gotLost, wantLost, ranges)
		}
	} else {
		c.ptoDeadline = time.Time{}
		c.mu.Unlock()
		c.onPTO()
		c.mu.Lock()
		h.ref.pto()
	}
	// The requeue order is the lost (or PTO) order, frame by frame.
	if !slices.EqualFunc(c.queued, ref.queued, sameFrame) {
		t.Fatalf("requeued %d frames, oracle %d, or in a different order", len(c.queued), len(ref.queued))
	}
	checkFrameOwnership(t, c)
	ref.queued = nil
	h.compareLocked()
	h.flushLocked()
	c.mu.Unlock()
	c.flushRTTSamples()
	ref.flushRTTSamples()
	if !slices.Equal(h.rtts, h.refRTTs) {
		t.Fatalf("RTT samples %v, oracle %v", h.rtts, h.refRTTs)
	}
}

func (h *recoveryHarness) compareLocked() {
	t, c, ref := h.t, h.c, h.ref.c
	checkHistory(t, c)
	if len(c.sent) != len(h.ref.sent) {
		t.Fatalf("history holds %d packets, oracle %d", len(c.sent), len(h.ref.sent))
	}
	for _, sp := range c.sent {
		if _, ok := h.ref.sent[sp.pn]; !ok {
			t.Fatalf("pn %d in history, not in oracle", sp.pn)
		}
	}
	type state struct {
		inFlight, cwnd int
		largestAcked   int64
		recoveryEnd    uint64
		ptoBackoff     uint
		srtt, rttvar   time.Duration
		rttSamples     int
	}
	got := state{c.inFlight, c.cwnd, c.largestAcked, c.recoveryEnd, c.ptoBackoff, c.srtt, c.rttvar, c.rttSamples}
	want := state{ref.inFlight, ref.cwnd, ref.largestAcked, ref.recoveryEnd, ref.ptoBackoff, ref.srtt, ref.rttvar, ref.rttSamples}
	if got != want {
		t.Fatalf("state %+v, oracle %+v", got, want)
	}
}

// TestSentHistoryMatchesMapOracle drives the ordered history and the
// map-keyed oracle through seeded schedules — gaps, reordering, drops,
// duplicate and stale acks, acks of unsent packet numbers, PTO fires — and
// requires identical acked and lost sets, requeue order, cwnd, recovery
// epoch, inFlight, PTO backoff and RTT samples after every event, and after
// every event no stream frame may be queued or in flight twice
// (checkFrameOwnership).
func TestSentHistoryMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		h := newRecoveryHarness(t, seed)
		for step := 0; step < 300; step++ {
			switch p := h.rng.Float64(); {
			case p < 0.40:
				h.send()
			case p < 0.80:
				h.apply(h.peerAck(), false)
			case p < 0.88 && len(h.acks) > 0:
				h.apply(h.acks[h.rng.Intn(len(h.acks))], false) // duplicate or stale
			case p < 0.95:
				h.apply(h.randomAck(), false)
			default:
				h.apply(nil, true)
			}
			h.clock.now = h.clock.now.Add(time.Duration(h.rng.Intn(5)) * time.Millisecond)
		}
		if h.c.rttSamples == 0 || h.c.recoveryEnd == 0 {
			t.Fatalf("seed %d never exercised RTT sampling or loss recovery", seed)
		}
	}
}

// TestSentHistoryReleasedAtTeardown: a closed connection — by the local
// application or by the peer's CLOSE frame — drops its in-flight history
// and queue, so a conn that stays reachable does not pin the stream data
// its retransmission state aliases.
func TestSentHistoryReleasedAtTeardown(t *testing.T) {
	loaded := func() *Conn {
		c, _ := deadConn(t, &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)})
		c.mu.Lock()
		for i := 0; i < 8; i++ {
			c.queueFrameLocked(frame{kind: ftStream, val: uint64(i) * 1000, data: make([]byte, 1000)})
		}
		c.packetizeLocked()
		if len(c.sent) == 0 {
			t.Fatal("nothing in flight before teardown")
		}
		checkHistory(t, c)
		c.mu.Unlock()
		return c
	}
	released := func(how string, c *Conn) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.closed || c.sent != nil || c.queued != nil || c.inFlight != 0 {
			t.Fatalf("%s: closed=%v history=%d queued=%d inFlight=%d, want released",
				how, c.closed, len(c.sent), len(c.queued), c.inFlight)
		}
	}

	c := loaded()
	c.Close()
	released("Close", c)

	c = loaded()
	hdr, dg := sealedPacket(c.keys.serverSeal, c.connID, 0, frame{kind: ftClose, val: 9, data: []byte("bye")})
	c.handleOneRTT(hdr, dg)
	released("peer close", c)
}

// TestMirrorPathReuse: a server conn keeps its installed mirror path while
// the peer's packets keep arriving over an equal path (so the path's
// memoized fingerprint and wire template stay warm), replaces it when the
// peer's path changes, and a steered or pinned reply path still wins over
// mirroring until it is reverted.
func TestMirrorPathReuse(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	cfg := (&Config{Clock: clock}).withDefaults()
	c := newConn(&discardPconn{clock: clock}, cfg, false)
	keys, err := deriveKeys([]byte("shared-secret-for-mirror-test.."), []byte("transcript"))
	if err != nil {
		t.Fatal(err)
	}
	c.keys, c.established = keys, true

	src, dst := addr.MustIA(1, 0xff00_0000_0111), addr.MustIA(2, 0xff00_0000_0211)
	route := func(egress addr.IfID) *segment.Path { // a fresh copy per packet, as snet delivers
		return &segment.Path{Src: src, Dst: dst, Hops: []segment.Hop{
			{IA: src, Egress: egress},
			{IA: dst, Ingress: 7},
		}}
	}
	var pn uint64
	deliver := func(rp *segment.Path) {
		hdr, dg := sealedPacket(c.keys.clientSeal, c.connID, pn, frame{kind: ftPing})
		pn++
		dg.ReplyPath = rp
		c.handleOneRTT(hdr, dg)
	}
	expect := func(step string, path, mirror *segment.Path) {
		t.Helper()
		if got := c.Path(); got != path {
			t.Fatalf("%s: Path() = %p, want %p", step, got, path)
		}
		if got := c.MirrorPath(); got != mirror {
			t.Fatalf("%s: MirrorPath() = %p, want %p", step, got, mirror)
		}
	}

	a := route(1)
	deliver(a)
	expect("first packet", a, a)
	deliver(route(1))
	expect("equal path", a, a)

	b := route(2)
	deliver(b)
	expect("changed path", b, b)

	steer := route(3)
	c.SetReplyPath(steer)
	deliver(route(2))
	expect("steered, equal peer path", steer, b)
	a2 := route(1)
	deliver(a2)
	expect("steered, changed peer path", steer, a2)
	c.SetReplyPath(nil)
	expect("steering reverted", a2, a2)
}

// ackBatch is the number of packets one BenchmarkAckProcessing ack newly
// acknowledges.
const ackBatch = 4

// ackProcessing builds a connection with inflight packets in flight and
// room for 4096 more, and returns it with BenchmarkAckProcessing's op: one
// ack that newly acknowledges ackBatch packets at the head of the in-flight
// history, then ackBatch fresh packets pushed so the in-flight count stays
// put.
func ackProcessing(tb testing.TB, inflight int) (*Conn, func()) {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	c, _ := deadConn(tb, clock)
	c.sent = make([]sentPacket, 0, inflight+4096)
	push := func() {
		c.sent = append(c.sent, sentPacket{pn: c.nextPN, frame: frame{kind: ftPing}, size: 1200, sentAt: clock.now.Sub(c.epoch)})
		c.inFlight += 1200
		c.nextPN++
	}
	for range inflight {
		push()
	}
	ack := []ackRange{{lo: 0}}
	return c, func() {
		clock.now = clock.now.Add(time.Millisecond)
		ack[0].hi = c.sent[ackBatch-1].pn
		c.mu.Lock()
		c.handleAckLocked(ack)
		for range ackBatch {
			push()
		}
		c.mu.Unlock()
	}
}

// BenchmarkAckProcessing times ackProcessing's op with few and with many
// packets in flight: the ordered history makes the cost independent of the
// in-flight count (CI holds inflight4096 within 2x of inflight64;
// TestAckProcessingAllocs holds its 0 allocs/op). Reallocating the
// history's backing array happens off the timer, because one 4096-entry
// copy inside a 100-iteration sample would swamp the ratio the gate
// compares.
func BenchmarkAckProcessing(b *testing.B) {
	for _, inflight := range []int{64, 4096} {
		b.Run(fmt.Sprintf("inflight%d", inflight), func(b *testing.B) {
			c, op := ackProcessing(b, inflight)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if cap(c.sent)-len(c.sent) < ackBatch {
					b.StopTimer()
					c.sent = append(make([]sentPacket, 0, inflight+4096), c.sent...)
					b.StartTimer()
				}
				op()
			}
			b.StopTimer()
			if len(c.sent) != inflight {
				b.Fatalf("in flight = %d, want %d", len(c.sent), inflight)
			}
		})
	}
}

// TestAckProcessingAllocs: BenchmarkAckProcessing/inflight4096's op
// allocates nothing. 101 ops stay within the history's spare room, so none
// reallocates it.
func TestAckProcessingAllocs(t *testing.T) {
	_, op := ackProcessing(t, 4096)
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Errorf("ack processing at 4096 in flight: %v allocs/op, want 0", n)
	}
}
