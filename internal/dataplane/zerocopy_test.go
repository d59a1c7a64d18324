package dataplane_test

import (
	"bytes"
	"sync"
	"testing"

	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// TestMarshalTemplatedMatchesMarshal pins the template fast path to the full
// encoder: for every hop position, the template-patched wire bytes must be
// byte-identical to Packet.Marshal.
func TestMarshalTemplatedMatchesMarshal(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for _, path := range paths {
		tmpl, err := dataplane.TemplateFor(path)
		if err != nil {
			t.Fatal(err)
		}
		if tmpl.NumHops() != len(path.Hops) {
			t.Fatalf("template hop count %d, path %d", tmpl.NumHops(), len(path.Hops))
		}
		// Memoized: the second request returns the same template.
		again, err := dataplane.TemplateFor(path)
		if err != nil || again != tmpl {
			t.Fatalf("TemplateFor not memoized: %p vs %p (err %v)", again, tmpl, err)
		}
		pkt := &dataplane.Packet{
			Src:     udp(topology.AS111, "10.0.0.1", 1000),
			Dst:     udp(topology.AS211, "10.0.0.2", 2000),
			Hops:    path.Hops,
			Payload: []byte("templated payload"),
		}
		for curr := 0; curr < len(path.Hops); curr++ {
			pkt.CurrHop = uint8(curr)
			want, err := pkt.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got, err := pkt.MarshalTemplated(tmpl)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("hop %d: templated wire diverges from Marshal", curr)
			}
			netsim.PutBuf(got)
		}
	}
	// Hop-count mismatch must be rejected, not silently mis-encoded.
	tmpl, err := dataplane.TemplateFor(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := &dataplane.Packet{Hops: paths[0].Hops[:1]}
	if _, err := bad.MarshalTemplated(tmpl); err == nil {
		t.Fatal("MarshalTemplated accepted a packet with the wrong hop count")
	}
}

// TestInjectTemplatedDelivers runs the full zero-copy send path end to end
// and checks it behaves exactly like InjectLocal: same delivery, same
// payload, and the sender's packet is left untouched for reuse.
func TestInjectTemplatedDelivers(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	tmpl, err := dataplane.TemplateFor(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1000),
		Dst:     udp(topology.AS211, "10.0.0.2", 2000),
		Hops:    paths[0].Hops,
		Payload: []byte("zero copy end to end"),
	}
	var mu sync.Mutex
	var got []*dataplane.Packet
	w.DW.Router(topology.AS211).SetDeliveryHandler(func(p *dataplane.Packet) bool {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return false
	})
	for i := 0; i < 3; i++ { // reuse the same packet across sends
		if err := w.DW.Router(topology.AS111).InjectTemplated(pkt, tmpl); err != nil {
			t.Fatal(err)
		}
		for w.Clock.AdvanceToNext() {
		}
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3", len(got))
	}
	for _, p := range got {
		if string(p.Payload) != "zero copy end to end" {
			t.Fatalf("payload %q", p.Payload)
		}
		if p.Src != pkt.Src || p.Dst != pkt.Dst {
			t.Fatalf("addressing mangled: %+v -> %+v", p.Src, p.Dst)
		}
		p.Release()
	}
	if pkt.CurrHop != 0 {
		t.Fatalf("InjectTemplated mutated the caller's packet: CurrHop %d", pkt.CurrHop)
	}
	// A nil template falls back to InjectLocal transparently.
	if err := w.DW.Router(topology.AS111).InjectTemplated(pkt, nil); err != nil {
		t.Fatal(err)
	}
	for w.Clock.AdvanceToNext() {
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("nil-template fallback did not deliver (got %d)", len(got))
	}
}

// TestMACCacheRejectsForgeryAfterWarm warms a router's MAC verdict cache
// with valid traffic, then sends a forged variant of the same flow: the
// forged hop bytes differ, so the cached PASS verdict must not apply.
func TestMACCacheRejectsForgeryAfterWarm(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	best := paths[0]
	good := &dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: best.Hops, Payload: []byte("legit"),
	}
	// Warm: several valid packets of the same flow. (InjectLocal advances
	// CurrHop in the caller's packet, so send copies.)
	for i := 0; i < 3; i++ {
		fresh := *good
		if got, _ := sendAndAwait(t, w, &fresh); got == nil {
			t.Fatal("valid packet not delivered")
		}
	}
	transit := w.DW.Router(best.Hops[1].IA)
	badBefore := transit.Stats().BadMAC
	hops := append([]segment.Hop(nil), best.Hops...)
	hops[1].Auth[0].HopField.ConsEgress++ // stale MAC, warm cache
	forged := &dataplane.Packet{
		Src:  udp(topology.AS111, "10.0.0.1", 1),
		Dst:  udp(topology.AS211, "10.0.0.2", 2),
		Hops: hops, Payload: []byte("evil"),
	}
	if got, _ := sendAndAwait(t, w, forged); got != nil {
		t.Fatal("forged packet delivered through a warm MAC cache")
	}
	if transit.Stats().BadMAC == badBefore {
		t.Fatal("transit router never re-verified the forged hop")
	}
	// Invalidation: valid traffic still flows after dropping every verdict.
	transit.InvalidateMACCache()
	fresh := *good
	if got, _ := sendAndAwait(t, w, &fresh); got == nil {
		t.Fatal("valid packet dropped after cache invalidation")
	}
}

// TestReleasedPacketsAreReused checks the delivery-side pooling contract:
// a released packet's storage comes back for a later delivery, and payloads
// remain intact for handlers that retain packets without releasing.
func TestReleasedPacketsAreReused(t *testing.T) {
	w := newWorld(t)
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	pkt := &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1),
		Dst:     udp(topology.AS211, "10.0.0.2", 2),
		Hops:    paths[0].Hops,
		Payload: []byte("pooled delivery"),
	}
	seen := make(map[*dataplane.Packet]int)
	deliveries := 0
	w.DW.Router(topology.AS211).SetDeliveryHandler(func(p *dataplane.Packet) bool {
		deliveries++
		seen[p]++
		if string(p.Payload) != "pooled delivery" {
			t.Errorf("delivery %d: payload %q", deliveries, p.Payload)
		}
		p.Release()
		return false
	})
	const n = 8
	for i := 0; i < n; i++ {
		fresh := *pkt // InjectLocal advances CurrHop in the caller's packet
		if err := w.DW.Router(topology.AS111).InjectLocal(&fresh); err != nil {
			t.Fatal(err)
		}
		for w.Clock.AdvanceToNext() {
		}
	}
	if deliveries != n {
		t.Fatalf("delivered %d of %d", deliveries, n)
	}
	reused := false
	for _, c := range seen {
		if c > 1 {
			reused = true
		}
	}
	if !reused {
		t.Fatal("no packet struct reuse across releases")
	}
	// Release is opt-in: calling it on a caller-constructed packet is a no-op
	// and must not poison the pool.
	pkt.Release()
	if string(pkt.Payload) != "pooled delivery" {
		t.Fatal("Release mutated a caller-owned packet")
	}
}
