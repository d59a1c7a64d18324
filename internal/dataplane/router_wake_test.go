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
	forwarded int  // packets that reached the far end of wakeOut's link
}

func newWakeRig(now time.Time, withHandler bool) *wakeRig {
	w := &wakeRig{clock: netsim.NewSimClock(now)}
	w.r = NewRouter(wakeIA, wakeKey, w.clock)
	out := netsim.NewLink(w.clock, netsim.LinkProps{Latency: time.Millisecond}, 1)
	out.Attach(1, func(p []byte) bool { w.forwarded++; netsim.PutBuf(p); return true })
	w.r.AttachInterface(wakeOut, out, 0)
	if withHandler {
		w.r.SetDeliveryHandler(func(p *Packet) { w.ran = true; p.Release() })
	}
	return w
}

// deliver hands the router a leased copy of wire as if it arrived on wakeIn
// and checks the wake contract: mayWake is true exactly when the delivery
// handler ran.
func (w *wakeRig) deliver(t testing.TB, wire []byte) (mayWake bool) {
	t.Helper()
	buf := netsim.GetBuf(len(wire))
	copy(buf, wire)
	w.ran = false
	mayWake = w.r.handleFromWire(wakeIn, buf)
	if mayWake != w.ran {
		t.Fatalf("handleFromWire returned mayWake=%v but the delivery handler ran=%v", mayWake, w.ran)
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
// covered.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := tc.now
			if now.IsZero() {
				now = wakeNow
			}
			w := newWakeRig(now, !tc.noHandler)
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
