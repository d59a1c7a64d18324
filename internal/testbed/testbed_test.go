package testbed_test

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"

	"tango/internal/addr"
	"tango/internal/snet"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// lossy puts 30% loss on AS111's link to its core, Core110.
func lossy(topo *topology.Topology) {
	for _, pair := range [][2]addr.IA{{topology.AS111, topology.Core110}, {topology.Core110, topology.AS111}} {
		for _, intf := range topo.AS(pair[0]).Interfaces {
			if intf.Remote == pair[1] {
				intf.Props.Loss = 0.3
			}
		}
	}
}

// fingerprints lists the fingerprints of every path between every ordered
// pair of ASes, in the combiner's order.
func fingerprints(w *testbed.World) []string {
	var out []string
	for _, src := range w.Topo.ASes() {
		for _, dst := range w.Topo.ASes() {
			out = append(out, src.IA.String()+">"+dst.IA.String())
			for _, p := range w.Combiner.Paths(src.IA, dst.IA, testbed.Start) {
				out = append(out, p.Fingerprint())
			}
		}
	}
	return out
}

// delivered sends n numbered datagrams from AS111 to Core110 over the
// lossy link, one instant at a time on the hand-stepped clock, and returns
// the numbers that arrived.
func delivered(t *testing.T, w *testbed.World, n int) []uint32 {
	t.Helper()
	dst := w.Stack(topology.Core110, "10.0.0.2")
	sc, err := dst.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got []uint32
	sc.SetHandler(func(dg snet.Datagram) { got = append(got, binary.BigEndian.Uint32(dg.Payload)) })
	cc, err := w.Stack(topology.AS111, "10.0.0.1").Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	paths := w.Combiner.Paths(topology.AS111, topology.Core110, testbed.Start)
	if len(paths) == 0 || len(paths[0].Hops) != 2 {
		t.Fatalf("want a direct AS111 -> Core110 path first, have %v", paths)
	}
	to := addr.UDPAddr{Addr: addr.Addr{IA: topology.Core110, Host: netip.MustParseAddr("10.0.0.2")}, Port: 8000}
	payload := make([]byte, 64)
	for i := range n {
		binary.BigEndian.PutUint32(payload, uint32(i))
		if err := cc.WriteTo(payload, to, paths[0]); err != nil {
			t.Fatal(err)
		}
		for w.Clock.AdvanceToNext() {
		}
	}
	return got
}

// TestWorldIsAFunctionOfItsSeed builds two worlds with the same seed over
// a topology with a lossy link: they must offer the same paths between
// every pair of ASes and lose the same datagrams. A third world with
// another seed must lose others, so the comparison shows the seed at work.
func TestWorldIsAFunctionOfItsSeed(t *testing.T) {
	const n = 200
	a := testbed.New(t, testbed.NewClock(), lossy, 7)
	b := testbed.New(t, testbed.NewClock(), lossy, 7)
	if fa, fb := fingerprints(a), fingerprints(b); !slices.Equal(fa, fb) {
		t.Fatalf("same seed, different paths:\n%v\n%v", fa, fb)
	}
	da, db := delivered(t, a, n), delivered(t, b, n)
	if len(da) == 0 || len(da) == n {
		t.Fatalf("%d of %d datagrams delivered over a 30%% lossy link", len(da), n)
	}
	if !slices.Equal(da, db) {
		t.Fatalf("same seed, different deliveries:\n%v\n%v", da, db)
	}
	other := delivered(t, testbed.New(t, testbed.NewClock(), lossy, 8), n)
	if slices.Equal(da, other) {
		t.Fatal("seeds 7 and 8 lost the same datagrams: the seed does not reach the links")
	}
}
