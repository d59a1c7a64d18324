package pathdb_test

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/pathdb"
	"tango/internal/segment"
	"tango/internal/topology"
)

// TestCombinationInvariantsOnRandomTopologies is the heavyweight property
// test of the control plane: across randomly generated topologies, every
// combined path between every AS pair must be structurally valid (loop-free,
// link-consistent, interface-authorized) and metadata-consistent, and a
// repeated, cached query must answer what a fresh combiner does.
func TestCombinationInvariantsOnRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("random-topology sweep")
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(topoName(seed), func(t *testing.T) {
			params := topology.DefaultGenParams()
			if seed%2 == 0 {
				params.ISDs = 3
				params.LeavesPerISD = 5
			}
			topo := topology.Generate(params, seed)
			infra, err := beacon.NewInfra(topo, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			reg := pathdb.NewRegistry(infra.Store)
			if err := beacon.NewService(topo, infra, reg, 12*time.Hour).Run(t0); err != nil {
				t.Fatal(err)
			}
			comb := pathdb.NewCombiner(reg)

			ases := topo.ASes()
			totalPaths := 0
			reachablePairs := 0
			for _, src := range ases {
				for _, dst := range ases {
					if src.IA == dst.IA {
						continue
					}
					paths := comb.Paths(src.IA, dst.IA, during)
					// The second, cached answer must equal a fresh
					// combiner's.
					assertSamePaths(t, comb.Paths(src.IA, dst.IA, during),
						pathdb.NewCombiner(reg).Paths(src.IA, dst.IA, during))
					if len(paths) > 0 {
						reachablePairs++
					}
					totalPaths += len(paths)
					for _, p := range paths {
						assertPathValid(t, topo, infra, p, src.IA, dst.IA)
					}
				}
			}
			// Beaconed topologies must be fully connected: beacons reach
			// every AS from every core, and cores are interconnected.
			if want := len(ases) * (len(ases) - 1); reachablePairs != want {
				t.Errorf("reachable pairs = %d, want %d", reachablePairs, want)
			}
			if totalPaths == 0 {
				t.Fatal("no paths at all")
			}
		})
	}
}

func topoName(seed int64) string {
	return "seed-" + string(rune('0'+seed))
}

// assertPathValid checks all structural invariants of one combined path.
func assertPathValid(t *testing.T, topo *topology.Topology, infra *beacon.Infra, p *segment.Path, src, dst addr.IA) {
	t.Helper()
	if p.Src != src || p.Dst != dst {
		t.Errorf("path %s: endpoints %s->%s, want %s->%s", p, p.Src, p.Dst, src, dst)
		return
	}
	if len(p.Hops) == 0 {
		t.Errorf("path %s->%s: empty", src, dst)
		return
	}
	seen := make(map[addr.IA]bool)
	for i, h := range p.Hops {
		if seen[h.IA] {
			t.Errorf("path %s: loop at %s", p, h.IA)
			return
		}
		seen[h.IA] = true

		// Hop-field MACs must verify under the owning AS's forwarding key,
		// and authorize the travel interfaces.
		key := infra.ForwardingKeys[h.IA]
		inOK := h.Ingress == 0
		outOK := h.Egress == 0
		for _, a := range h.AuthFields() {
			if !segment.VerifyMAC(key, a.SegInfo, a.HopField) {
				t.Errorf("path %s: hop %d MAC invalid", p, i)
				return
			}
			if a.Authorizes(h.Ingress) {
				inOK = true
			}
			if a.Authorizes(h.Egress) {
				outOK = true
			}
		}
		if !inOK || !outOK {
			t.Errorf("path %s: hop %d interfaces unauthorized", p, i)
			return
		}
		// Consecutive hops must share a physical link.
		if i > 0 {
			prev := p.Hops[i-1]
			intf := topo.AS(prev.IA).Interfaces[prev.Egress]
			if intf == nil || intf.Remote != h.IA || intf.RemoteID != h.Ingress {
				t.Errorf("path %s: hops %d-%d not joined by a topology link", p, i-1, i)
				return
			}
		}
	}
	// Metadata consistency: latency equals the sum of traversed link
	// latencies; MTU is a lower bound of every traversed MTU.
	var wantLat time.Duration
	for i := 1; i < len(p.Hops); i++ {
		prev := p.Hops[i-1]
		intf := topo.AS(prev.IA).Interfaces[prev.Egress]
		wantLat += intf.Props.Latency
	}
	if p.Meta.Latency != wantLat {
		t.Errorf("path %s: latency %v, links sum to %v", p, p.Meta.Latency, wantLat)
	}
	for i := 1; i < len(p.Hops); i++ {
		prev := p.Hops[i-1]
		intf := topo.AS(prev.IA).Interfaces[prev.Egress]
		if intf.Props.MTU > 0 && p.Meta.MTU > intf.Props.MTU {
			t.Errorf("path %s: MTU %d exceeds link MTU %d", p, p.Meta.MTU, intf.Props.MTU)
		}
	}
	if !p.Meta.Expiry.After(during) {
		t.Errorf("path %s: expired at query time", p)
	}
}

// TestGeneratorDeterminism pins the generator's reproducibility.
func TestGeneratorDeterminism(t *testing.T) {
	a := topology.Generate(topology.DefaultGenParams(), 7)
	b := topology.Generate(topology.DefaultGenParams(), 7)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
	c := topology.Generate(topology.DefaultGenParams(), 8)
	if len(c.Links()) == len(la) {
		same := true
		lc := c.Links()
		for i := range la {
			if la[i] != lc[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical topologies")
		}
	}
}
