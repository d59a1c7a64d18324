package dataplane

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// The wake-contract rig is one router for the middle AS of fuzzSeedPacket's
// path: packets enter on wakeIn and transit leaves on wakeOut.
var (
	wakeKey = []byte("wake-contract forwarding key")
	wakeIA  = addr.IA{ISD: 1, AS: 0xff0000000110}
	wakeNow = time.Date(2022, 10, 10, 1, 0, 0, 0, time.UTC) // before the seed hops expire
)

const (
	wakeIn  addr.IfID = 2
	wakeOut addr.IfID = 3
)

// signHops recomputes every hop field's MAC under wakeKey.
func signHops(hops []segment.Hop) {
	for i := range hops {
		for j := 0; j < hops[i].NumAuth; j++ {
			a := &hops[i].Auth[j]
			a.HopField.MAC = segment.ComputeMAC(wakeKey, a.SegInfo, a.HopField)
		}
	}
}

// wakeTransitPacket is a valid packet whose current hop transits the rig
// router from wakeIn to wakeOut.
func wakeTransitPacket() *Packet {
	p := fuzzSeedPacket()
	p.CurrHop = 1
	signHops(p.Hops)
	return p
}

// wakeFinalPacket is a valid packet whose current hop is its last, entering
// the rig router on wakeIn and destined for a host in the rig's AS.
func wakeFinalPacket() *Packet {
	p := fuzzSeedPacket()
	p.Hops = p.Hops[:2]
	last := &p.Hops[1]
	last.Egress = 0
	last.NumAuth = 1
	last.Auth[0].HopField.ConsEgress = 0
	last.Auth[1] = segment.AuthField{}
	p.Dst.IA = wakeIA
	p.CurrHop = 1
	signHops(p.Hops)
	return p
}

type wakeRig struct {
	r         *Router
	clock     *netsim.SimClock
	ran       bool // the delivery handler ran during the last deliver
	woke      bool // what the delivery handler returns
	forwarded int  // packets that reached the far end of wakeOut's link
}

// newWakeRig builds the rig at now; withHandler registers a delivery handler
// that returns woke.
func newWakeRig(now time.Time, withHandler, woke bool) *wakeRig {
	w := &wakeRig{clock: netsim.NewSimClock(now), woke: woke}
	w.r = NewRouter(wakeIA, wakeKey, w.clock)
	out := netsim.NewLink(w.clock, netsim.LinkProps{Latency: time.Millisecond}, 1)
	out.Attach(1, func(p []byte) bool { w.forwarded++; netsim.PutBuf(p); return true })
	w.r.AttachInterface(wakeOut, out, 0)
	if withHandler {
		w.r.SetDeliveryHandler(func(p *Packet) bool { w.ran = true; p.Release(); return w.woke })
	}
	return w
}

// deliver hands the router a leased copy of wire as if it arrived on wakeIn
// and checks the wake contract: mayWake is what the delivery handler
// returned if it ran, and false if it did not.
func (w *wakeRig) deliver(t testing.TB, wire []byte) (mayWake bool) {
	t.Helper()
	buf := netsim.GetBuf(len(wire))
	copy(buf, wire)
	w.ran = false
	mayWake = w.r.handleFromWire(wakeIn, buf)
	if want := w.ran && w.woke; mayWake != want {
		t.Fatalf("handleFromWire returned mayWake=%v, want %v (delivery handler ran=%v and returned %v)", mayWake, want, w.ran, w.woke)
	}
	return mayWake
}

func mustMarshal(t testing.TB, p *Packet) []byte {
	t.Helper()
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestHandleFromWireWakeContract drives the router's wire receiver through
// every transit and drop path and the final-hop delivery. Each packet is
// sent twice, so both the MAC-cache miss and (for valid hops) hit paths are
// covered. The delivery handler returns true unless a case says it woke
// nobody: mayWake must be its verdict at the final hop and false elsewhere.
func TestHandleFromWireWakeContract(t *testing.T) {
	transit := mustMarshal(t, wakeTransitPacket())
	final := mustMarshal(t, wakeFinalPacket())
	forged := wakeTransitPacket()
	forged.Hops[1].Auth[0].HopField.MAC[0] ^= 0xff
	unattached := wakeTransitPacket()
	unattached.Hops[1].Egress = 9
	unattached.Hops[1].Auth[0].HopField.ConsEgress = 9
	signHops(unattached.Hops)
	wrongDst := wakeFinalPacket()
	wrongDst.Dst.IA = addr.IA{ISD: 2, AS: 0xff0000000211}

	cases := []struct {
		name        string
		wire        []byte
		now         time.Time
		noHandler   bool
		handlerIdle bool // the delivery handler returns false
		wantWake    bool
		wantForward int
		stat        func(RouterStats) uint64
	}{
		{name: "transit fast path", wire: transit, wantForward: 2,
			stat: func(s RouterStats) uint64 { return s.Forwarded }},
		{name: "forged MAC", wire: mustMarshal(t, forged),
			stat: func(s RouterStats) uint64 { return s.BadMAC }},
		{name: "expired hop", wire: transit, now: wakeNow.Add(48 * time.Hour),
			stat: func(s RouterStats) uint64 { return s.Expired }},
		{name: "unattached egress", wire: mustMarshal(t, unattached),
			stat: func(s RouterStats) uint64 { return s.NoInterface }},
		{name: "truncated", wire: transit[:fixedHeaderLen+3],
			stat: func(s RouterStats) uint64 { return s.ParseError }},
		{name: "empty path", wire: mustMarshal(t, &Packet{Dst: wakeTransitPacket().Dst}),
			stat: func(s RouterStats) uint64 { return s.ParseError }},
		{name: "final hop to wrong AS", wire: mustMarshal(t, wrongDst),
			stat: func(s RouterStats) uint64 { return s.WrongIA }},
		{name: "final hop without host stack", wire: final, noHandler: true,
			stat: func(s RouterStats) uint64 { return s.NoLocalHosts }},
		{name: "final-hop delivery", wire: final, wantWake: true,
			stat: func(s RouterStats) uint64 { return s.Delivered }},
		{name: "final-hop delivery waking nobody", wire: final, handlerIdle: true,
			stat: func(s RouterStats) uint64 { return s.Delivered }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := tc.now
			if now.IsZero() {
				now = wakeNow
			}
			w := newWakeRig(now, !tc.noHandler, !tc.handlerIdle)
			for i := 0; i < 2; i++ {
				if got := w.deliver(t, tc.wire); got != tc.wantWake {
					t.Fatalf("send %d: mayWake=%v, want %v", i, got, tc.wantWake)
				}
			}
			for w.clock.AdvanceToNext() {
			}
			if w.forwarded != tc.wantForward {
				t.Fatalf("forwarded %d packets, want %d", w.forwarded, tc.wantForward)
			}
			if got := tc.stat(w.r.Stats()); got != 2 {
				t.Fatalf("counter for %q = %d, want 2 (stats %+v)", tc.name, got, w.r.Stats())
			}
		})
	}
}
