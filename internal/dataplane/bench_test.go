package dataplane_test

import (
	"runtime/debug"
	"testing"

	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// benchPacket returns a 111 → 211 packet on the first combined path with a
// payload of size bytes, and that path.
func benchPacket(tb testing.TB, w *testbed.World, size int) (*dataplane.Packet, *segment.Path) {
	tb.Helper()
	paths := w.Combiner.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) == 0 {
		tb.Fatal("no paths")
	}
	return &dataplane.Packet{
		Src:     udp(topology.AS111, "10.0.0.1", 1),
		Dst:     udp(topology.AS211, "10.0.0.2", 2),
		Hops:    paths[0].Hops,
		Payload: make([]byte, size),
	}, paths[0]
}

// transit returns one forwarding pass, 111 → 211, as an op: inject a
// templated 900-byte payload (header and payload fit the 1400 B MTU) and
// drive the virtual clock until AS 211 delivers it. delivered counts the
// deliveries since transit returned. One pass runs before it returns, so the
// packet pool and the MAC verifiers are built. With cold, every op first
// clears the MAC verdict cache of each router on the path.
func transit(tb testing.TB, cold bool) (op func(), delivered func() int) {
	w := newWorld(tb)
	n := 0
	w.DW.Router(topology.AS211).SetDeliveryHandler(func(p *dataplane.Packet) { n++; p.Release() })
	pkt, path := benchPacket(tb, w, 900)
	tmpl, err := dataplane.TemplateFor(path)
	if err != nil {
		tb.Fatal(err)
	}
	var flush []*dataplane.Router
	if cold {
		for _, h := range path.Hops {
			flush = append(flush, w.DW.Router(h.IA))
		}
	}
	src := w.DW.Router(topology.AS111)
	op = func() {
		for _, r := range flush {
			r.InvalidateMACCache()
		}
		if err := src.InjectTemplated(pkt, tmpl); err != nil {
			tb.Fatal(err)
		}
		for w.Clock.AdvanceToNext() {
		}
	}
	op()
	n = 0
	return op, func() int { return n }
}

// BenchmarkRouterTransit measures one multi-hop forwarding pass with the
// flow-verified MAC cache warm (an established flow) and cold (every
// transit router re-derives and re-verifies each hop MAC): the difference
// is what the verdict cache is worth per packet.
func BenchmarkRouterTransit(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			op, delivered := transit(b, cold)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op()
			}
			if got := delivered(); got != b.N {
				b.Fatalf("delivered %d of %d", got, b.N)
			}
		})
	}
}

// TestRouterTransitAllocs: a warm forwarding pass, BenchmarkRouterTransit/
// warm's op, allocates nothing: the packet buffer, the delivered Packet and
// the MAC verifiers all come from pools. Under the race detector, whose
// sync.Pool drops a random quarter of Puts, a pass averages 1.5.
func TestRouterTransitAllocs(t *testing.T) {
	op, delivered := transit(t, false)
	budget := 0.0
	if raceBuild() {
		budget = 2
	}
	if n := testing.AllocsPerRun(100, op); n > budget {
		t.Errorf("warm transit: %v allocs/op, want <= %v", n, budget)
	}
	if got := delivered(); got != 101 {
		t.Fatalf("delivered %d of 101", got)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// codecRound returns one Marshal+Unmarshal round trip of a 1000-byte packet.
func codecRound(tb testing.TB) func() {
	pkt, _ := benchPacket(tb, newWorld(tb), 1000)
	return func() {
		buf, err := pkt.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := dataplane.Unmarshal(buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPacketCodec measures SCION packet marshal+unmarshal round trips.
func BenchmarkPacketCodec(b *testing.B) {
	round := codecRound(b)
	b.ReportAllocs()
	b.SetBytes(1000)
	b.ResetTimer()
	for range b.N {
		round()
	}
}

// TestPacketCodecAllocs: a round trip allocates the wire buffer, then the
// decoded Packet, its hop slice and its payload, and nothing else.
func TestPacketCodecAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, codecRound(t)); n > 4 {
		t.Errorf("marshal+unmarshal: %v allocs/op, want <= 4", n)
	}
}

// BenchmarkPacketTemplate contrasts template-patched marshaling (the snet
// send path: the pre-encoded hop section is copied, only header, addresses
// and payload are written per packet) with encoding the full header.
// Each side is warmed off the timer: under a short -benchtime the first
// call's buffer growth would otherwise swamp the per-packet cost.
func BenchmarkPacketTemplate(b *testing.B) {
	pkt, path := benchPacket(b, newWorld(b), 1000)
	b.Run("full", func(b *testing.B) {
		if _, err := pkt.Marshal(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(1000)
		b.ResetTimer()
		for range b.N {
			if _, err := pkt.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("templated", func(b *testing.B) {
		tmpl, err := dataplane.TemplateFor(path)
		if err != nil {
			b.Fatal(err)
		}
		marshal := func() {
			buf, err := pkt.MarshalTemplated(tmpl)
			if err != nil {
				b.Fatal(err)
			}
			netsim.PutBuf(buf)
		}
		marshal()
		b.ReportAllocs()
		b.SetBytes(1000)
		b.ResetTimer()
		for range b.N {
			marshal()
		}
	})
}
