package snet

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// TestDeliverWithoutHandlerDrops: a datagram for a bound socket that has no
// handler is dropped. Stack.deliver releases its packet, so the wire buffer
// goes back to the pool, and reports that it woke nobody. The packet
// crosses a link into the router, which decodes it into a pooled packet,
// and on to the stack.
func TestDeliverWithoutHandlerDrops(t *testing.T) {
	key := []byte("no-handler forwarding key")
	now := time.Date(2022, 10, 10, 1, 0, 0, 0, time.UTC)
	src := addr.IA{ISD: 1, AS: 0xff0000000111}
	dst := addr.IA{ISD: 1, AS: 0xff0000000110}
	const in addr.IfID = 2

	clock := netsim.NewSimClock(now)
	r := dataplane.NewRouter(dst, key, clock)
	link := netsim.NewLink(clock, netsim.LinkProps{Latency: time.Millisecond}, 1)
	r.AttachInterface(in, link, 0)
	s := &Stack{local: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, router: r, clock: clock, conns: make(map[uint16]*Conn)}
	delivered, woke := 0, false
	r.SetDeliveryHandler(func(pkt *dataplane.Packet) bool {
		delivered++
		woke = s.deliver(pkt)
		return woke
	})
	c, err := s.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The last hop enters dst on in and is signed with dst's key; the
	// router validates no other.
	last := segment.Hop{IA: dst, Ingress: in, NumAuth: 1}
	last.Auth[0] = segment.AuthField{
		SegInfo:  segment.Info{Timestamp: now, SegID: 7, Origin: dst},
		HopField: segment.HopField{ConsIngress: in, ExpTime: now.Add(time.Hour)},
	}
	last.Auth[0].HopField.MAC = segment.ComputeMAC(key, last.Auth[0].SegInfo, last.Auth[0].HopField)
	pkt := dataplane.Packet{
		Src:     addr.UDPAddr{Addr: addr.Addr{IA: src, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1000},
		Dst:     addr.UDPAddr{Addr: s.local, Port: c.LocalAddr().Port},
		Hops:    []segment.Hop{{IA: src, Egress: 1}, last},
		CurrHop: 1,
		Payload: []byte("nobody listens"),
	}
	wire, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	before := netsim.ReadPoolStats()
	if !link.Send(1, wire) {
		t.Fatal("link refused the packet")
	}
	for clock.AdvanceToNext() {
	}
	after := netsim.ReadPoolStats()
	if delivered != 1 {
		t.Fatalf("router delivered %d packets to the stack, want 1 (stats %+v)", delivered, r.Stats())
	}
	if woke {
		t.Error("a datagram for a socket without a handler reported a wake")
	}
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets == 0 || gets != puts {
		t.Errorf("pool leases during the delivery: %d gets, %d puts; want equal and nonzero", gets, puts)
	}
}
