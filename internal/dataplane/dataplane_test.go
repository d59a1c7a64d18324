package dataplane_test

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/pathdb"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// newWorld is the testbed world stepped by hand.
func newWorld(t testing.TB) *testbed.World { return testbed.New(t, testbed.NewClock(), nil, 1) }

func udp(ia addr.IA, host string, port uint16) addr.UDPAddr {
	return addr.UDPAddr{Addr: addr.Addr{IA: ia, Host: netip.MustParseAddr(host)}, Port: port}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	t0, t1 := testbed.Epoch, testbed.Epoch.Add(24*time.Hour)
	p := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 4242),
		Dst:     udp(topology.AS211, "192.168.1.9", 443),
		CurrHop: 1,
		Hops: []segment.Hop{
			{IA: topology.AS111, Egress: 2, NumAuth: 1, Auth: [2]segment.AuthField{{
				HopField: segment.HopField{ConsIngress: 1, ConsEgress: 2, ExpTime: t1, MAC: segment.MAC{1, 2, 3, 4, 5, 6}},
				SegInfo:  segment.Info{Timestamp: t0, SegID: 7, Origin: topology.Core110},
			}}},
			{IA: topology.Core110, Ingress: 1, Egress: 3, NumAuth: 2, Auth: [2]segment.AuthField{
				{HopField: segment.HopField{ConsIngress: 1, ConsEgress: 0, ExpTime: t1}, SegInfo: segment.Info{Timestamp: t0, SegID: 7, Origin: topology.Core110}},
				{HopField: segment.HopField{ConsIngress: 0, ConsEgress: 3, ExpTime: t1}, SegInfo: segment.Info{Timestamp: t0, SegID: 8, Origin: topology.Core110}},
			}},
		},
		Payload: []byte("hello scion"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != dataplane.HeaderLen(p.Hops)+len(p.Payload) {
		t.Fatalf("encoded %d bytes, HeaderLen promises %d+%d", len(buf), dataplane.HeaderLen(p.Hops), len(p.Payload))
	}
	q, err := dataplane.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Src != p.Src || q.Dst != p.Dst || q.CurrHop != p.CurrHop {
		t.Fatalf("header mismatch: %+v", q)
	}
	if len(q.Hops) != len(p.Hops) {
		t.Fatal("hop count changed")
	}
	for i := range p.Hops {
		if !p.Hops[i].Auth[0].HopField.ExpTime.Equal(q.Hops[i].Auth[0].HopField.ExpTime) {
			t.Fatalf("hop %d exp time mismatch", i)
		}
		p.Hops[i].Auth[0].HopField.ExpTime = q.Hops[i].Auth[0].HopField.ExpTime
		p.Hops[i].Auth[1].HopField.ExpTime = q.Hops[i].Auth[1].HopField.ExpTime
		p.Hops[i].Auth[0].SegInfo.Timestamp = q.Hops[i].Auth[0].SegInfo.Timestamp
		p.Hops[i].Auth[1].SegInfo.Timestamp = q.Hops[i].Auth[1].SegInfo.Timestamp
		if p.Hops[i] != q.Hops[i] {
			t.Fatalf("hop %d mismatch:\n%+v\n%+v", i, p.Hops[i], q.Hops[i])
		}
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload %q", q.Payload)
	}
}

func TestPacketUnmarshalTruncated(t *testing.T) {
	p := &dataplane.Packet{Src: udp(topology.AS111, "10.0.0.1", 1), Dst: udp(topology.AS112, "10.0.0.2", 2), Payload: []byte("xyz")}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := dataplane.Unmarshal(buf[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

func TestPacketUnmarshalFuzz(t *testing.T) {
	f := func(junk []byte) bool {
		// Must never panic; errors are fine.
		_, _ = dataplane.Unmarshal(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// sendAndAwait injects pkt at the source router and waits (advancing virtual
// time) for delivery at the destination AS.
func sendAndAwait(t *testing.T, w *testbed.World, pkt *dataplane.Packet) (*dataplane.Packet, time.Duration) {
	t.Helper()
	var mu sync.Mutex
	var got *dataplane.Packet
	w.DW.Router(pkt.Dst.IA).SetDeliveryHandler(func(p *dataplane.Packet) bool {
		mu.Lock()
		got = p
		mu.Unlock()
		return false
	})
	start := w.Clock.Now()
	if err := w.DW.Router(pkt.Src.IA).InjectLocal(pkt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mu.Lock()
		done := got != nil
		mu.Unlock()
		if done {
			return got, w.Clock.Since(start)
		}
		if !w.Clock.AdvanceToNext() {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return got, w.Clock.Since(start)
}

func TestForwardingAcrossISDs(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	best := paths[0]
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1000),
		Dst:     udp(topology.AS211, "10.0.0.2", 2000),
		Hops:    best.Hops,
		Payload: []byte("payload across the world"),
	}
	got, elapsed := sendAndAwait(t, w, pkt)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "payload across the world" {
		t.Fatalf("payload %q", got.Payload)
	}
	// Propagation plus per-hop serialization (a few µs at 1 Gbps).
	if elapsed < best.Meta.Latency || elapsed > best.Meta.Latency+time.Millisecond {
		t.Fatalf("delivery took %v, want ~path latency %v", elapsed, best.Meta.Latency)
	}
}

func TestForwardingPeeringPath(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS121, testbed.Start)
	var peering *segment.Path
	for _, p := range paths {
		if len(p.Hops) == 2 {
			peering = p
		}
	}
	if peering == nil {
		t.Fatal("no peering path")
	}
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1),
		Dst:     udp(topology.AS121, "10.0.0.2", 2),
		Hops:    peering.Hops,
		Payload: []byte("via peering"),
	}
	got, elapsed := sendAndAwait(t, w, pkt)
	if got == nil {
		t.Fatal("packet not delivered over peering link")
	}
	if elapsed < 6*time.Millisecond || elapsed > 7*time.Millisecond {
		t.Fatalf("peering delivery took %v, want ~6ms", elapsed)
	}
}

func TestForwardingRejectsForgedMAC(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	best := paths[0]
	hops := append([]segment.Hop(nil), best.Hops...)
	// A malicious end host rewrites an interface to detour the path; the
	// MAC no longer covers it.
	hops[1].Auth[0].HopField.ConsEgress += 1
	hops[1].Egress += 0 // travel fields unchanged; MAC now stale
	pkt := &dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: hops, Payload: []byte("evil"),
	}
	got, _ := sendAndAwait(t, w, pkt)
	if got != nil {
		t.Fatal("packet with forged hop field delivered")
	}
	stats := w.DW.Router(hops[1].IA).Stats()
	if stats.BadMAC == 0 {
		t.Fatalf("router stats %+v: expected BadMAC", stats)
	}
}

func TestForwardingRejectsUnauthorizedDetour(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	best := paths[0]
	hops := append([]segment.Hop(nil), best.Hops...)
	// Keep MACs intact but change the travel egress to an interface not
	// covered by any carried authorization.
	hops[1].Egress = 99
	pkt := &dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: hops, Payload: []byte("detour"),
	}
	got, _ := sendAndAwait(t, w, pkt)
	if got != nil {
		t.Fatal("detoured packet delivered")
	}
	stats := w.DW.Router(hops[1].IA).Stats()
	if stats.Unauthorized == 0 {
		t.Fatalf("router stats %+v: expected Unauthorized", stats)
	}
}

func TestForwardingRejectsExpiredHops(t *testing.T) {
	topo := topology.Default()
	t0 := testbed.Epoch
	infra, err := beacon.NewInfra(topo, t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	if err := beacon.NewService(topo, infra, reg, time.Hour).Run(t0); err != nil {
		t.Fatal(err)
	}
	// Clock starts after hop expiry.
	clock := netsim.NewSimClock(t0.Add(2 * time.Hour))
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, t0.Add(30*time.Minute))
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	pkt := &dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: paths[0].Hops, Payload: []byte("late"),
	}
	if err := dw.Router(topology.AS111).InjectLocal(pkt); err != nil {
		t.Fatal(err)
	}
	if s := dw.Router(topology.AS111).Stats(); s.Expired == 0 {
		t.Fatalf("router stats %+v: expected Expired", s)
	}
}

func TestLocalDeliveryEmptyPath(t *testing.T) {
	w := newWorld(t)
	var got *dataplane.Packet
	w.DW.Router(topology.AS111).SetDeliveryHandler(func(p *dataplane.Packet) bool { got = p; return false })
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1),
		Dst:     udp(topology.AS111, "10.0.0.2", 2),
		Payload: []byte("local"),
	}
	if err := w.DW.Router(topology.AS111).InjectLocal(pkt); err != nil {
		t.Fatal(err)
	}
	w.Clock.AdvanceToNext() // AS-local delivery is asynchronous
	if got == nil || string(got.Payload) != "local" {
		t.Fatal("AS-local packet not delivered")
	}
}

func TestInjectLocalValidation(t *testing.T) {
	w := newWorld(t)
	// Empty path to a non-local destination.
	err := w.DW.Router(topology.AS111).InjectLocal(&dataplane.Packet{
		Src: udp(topology.AS111, "10.0.0.1", 1),
		Dst: udp(topology.AS211, "10.0.0.2", 2),
	})
	if err == nil {
		t.Fatal("empty path to remote AS accepted")
	}
	// Path whose first hop is another AS.
	paths := w.Combiner.Paths(topology.AS112, topology.AS211, testbed.Start)
	err = w.DW.Router(topology.AS111).InjectLocal(&dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: paths[0].Hops,
	})
	if err == nil {
		t.Fatal("foreign first hop accepted")
	}
}

func TestReplyPathRoundTrip(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	best := paths[0]
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1000),
		Dst:     udp(topology.AS211, "10.0.0.2", 2000),
		Hops:    best.Hops,
		Payload: []byte("ping"),
	}
	got, _ := sendAndAwait(t, w, pkt)
	if got == nil {
		t.Fatal("request not delivered")
	}
	reply := &dataplane.Packet{
		Src:     got.Dst,
		Dst:     got.Src,
		Hops:    got.ReplyPath().Hops,
		CurrHop: 0,
		Payload: []byte("pong"),
	}
	back, elapsed := sendAndAwait(t, w, reply)
	if back == nil {
		t.Fatal("reply not delivered over reversed path")
	}
	if string(back.Payload) != "pong" {
		t.Fatalf("reply payload %q", back.Payload)
	}
	if elapsed < best.Meta.Latency || elapsed > best.Meta.Latency+time.Millisecond {
		t.Fatalf("reply took %v, want ~%v", elapsed, best.Meta.Latency)
	}
}

func TestMTUEnforcedByLinks(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	best := paths[0]
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1),
		Dst:     udp(topology.AS211, "10.0.0.2", 2),
		Hops:    best.Hops,
		Payload: make([]byte, best.Meta.MTU+1),
	}
	got, _ := sendAndAwait(t, w, pkt)
	if got != nil {
		t.Fatal("oversized packet delivered")
	}
}
