package dataplane

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// fuzzSeedPacket builds a representative two-hop packet for seeding corpora.
func fuzzSeedPacket() *Packet {
	exp := time.Date(2022, 10, 11, 0, 0, 0, 0, time.UTC)
	hop := func(ia addr.IA, in, out addr.IfID, numAuth int) segment.Hop {
		h := segment.Hop{IA: ia, Ingress: in, Egress: out, NumAuth: numAuth}
		for j := 0; j < numAuth; j++ {
			h.Auth[j] = segment.AuthField{
				SegInfo: segment.Info{
					Timestamp: exp.Add(-time.Hour),
					SegID:     uint16(7 + j),
					Origin:    addr.IA{ISD: 1, AS: 0xff0000000110},
				},
				HopField: segment.HopField{
					ConsIngress: in,
					ConsEgress:  out,
					ExpTime:     exp,
					MAC:         segment.MAC{1, 2, 3, 4, 5, byte(j)},
				},
			}
		}
		return h
	}
	return &Packet{
		Src: addr.UDPAddr{Addr: addr.Addr{IA: addr.IA{ISD: 1, AS: 0xff0000000111}, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1000},
		Dst: addr.UDPAddr{Addr: addr.Addr{IA: addr.IA{ISD: 2, AS: 0xff0000000211}, Host: netip.MustParseAddr("10.0.0.2")}, Port: 2000},
		Hops: []segment.Hop{
			hop(addr.IA{ISD: 1, AS: 0xff0000000111}, 0, 1, 1),
			hop(addr.IA{ISD: 1, AS: 0xff0000000110}, 2, 3, 2),
			hop(addr.IA{ISD: 2, AS: 0xff0000000211}, 4, 0, 1),
		},
		Payload: []byte("fuzz seed payload"),
	}
}

// FuzzUnmarshal checks that Unmarshal is panic-free on arbitrary input and
// that every packet it accepts round-trips: Marshal must succeed on the
// decoded packet and decoding the re-encoded bytes must reproduce it exactly.
func FuzzUnmarshal(f *testing.F) {
	pkt := fuzzSeedPacket()
	wire, err := pkt.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(wire[:len(wire)-5])
	f.Add([]byte{version, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := p.Marshal()
		if err != nil {
			t.Fatalf("Marshal rejected a packet Unmarshal accepted: %v", err)
		}
		q, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("Unmarshal rejected its own re-encoding: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", p, q)
		}
	})
}

// FuzzTransitHop differentially tests the router's forwarding fast path
// against the full decoder: whenever currHopSpan locates the current hop,
// decoding that span must agree exactly with Unmarshal's view of the same
// hop, and the final flag must match the hop position. This is the property
// the MAC verdict cache and the in-place CurrHop patch rely on. Every input
// is also fed (twice: MAC-cache miss, then hit) to a router's wire receiver,
// which must report mayWake as its delivery handler's verdict when the
// handler ran, and false when it did not. The handler's verdict follows the
// input's length, so both verdicts are fuzzed.
func FuzzTransitHop(f *testing.F) {
	pkt := fuzzSeedPacket()
	for curr := uint8(0); curr < 3; curr++ {
		pkt.CurrHop = curr
		wire, err := pkt.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{version, 1, 2, 0})
	f.Add(mustMarshal(f, wakeTransitPacket()))
	f.Add(mustMarshal(f, wakeFinalPacket()))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWakeRig(wakeNow, true, len(data)%2 == 0)
		w.deliver(t, data)
		w.deliver(t, data)

		raw, final, ok := currHopSpan(data)
		if !ok {
			return
		}
		// The span must be a window into data at the documented offset so the
		// MAC cache's identity (these exact bytes) matches what a re-marshal
		// of the decoded hop would produce.
		if len(raw) < hopFixedLen {
			t.Fatalf("span shorter than a fixed hop: %d", len(raw))
		}
		hop := decodeHopSpan(raw) // must not panic: span is pre-validated
		p, err := Unmarshal(data)
		if err != nil {
			return // fast path optimism; router's slow path reports the error
		}
		curr := int(p.CurrHop)
		if curr >= len(p.Hops) {
			t.Fatalf("currHopSpan ok=true but CurrHop %d out of %d hops", curr, len(p.Hops))
		}
		if got, want := final, curr == len(p.Hops)-1; got != want {
			t.Fatalf("final=%v, want %v (hop %d of %d)", got, want, curr, len(p.Hops))
		}
		if !reflect.DeepEqual(hop, p.Hops[curr]) {
			t.Fatalf("fast path decoded hop diverges from Unmarshal:\n  fast %+v\n  full %+v", hop, p.Hops[curr])
		}
		// The span's bytes must also match what the full encoder emits for
		// this hop — the identity property that lets the sender-side template
		// (hopSpan) and the transit router share one MAC verdict cache key.
		enc, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		raw2, _, ok2 := currHopSpan(enc)
		if !ok2 {
			t.Fatal("currHopSpan failed on re-encoded packet")
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("hop span not canonical:\n  input    %x\n  re-encode %x", raw, raw2)
		}
	})
}
