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

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	t1     = t0.Add(24 * time.Hour)
	during = t0.Add(time.Hour)
)

func combinerWorld(t testing.TB) (*topology.Topology, *beacon.Infra, *pathdb.Combiner) {
	t.Helper()
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	svc := beacon.NewService(topo, infra, reg, 12*time.Hour)
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	return topo, infra, pathdb.NewCombiner(reg)
}

// checkPathWellFormed asserts structural invariants every combined path must
// satisfy.
func checkPathWellFormed(t *testing.T, topo *topology.Topology, p *segment.Path) {
	t.Helper()
	seen := make(map[addr.IA]bool)
	for i, h := range p.Hops {
		if seen[h.IA] {
			t.Errorf("path %s: AS loop at %s", p, h.IA)
		}
		seen[h.IA] = true
		if h.NumAuth < 1 || h.NumAuth > 2 {
			t.Errorf("path %s: hop %d has %d auth fields", p, i, h.NumAuth)
		}
		// Travel interfaces must be authorized by the hop fields.
		if h.Ingress != 0 {
			ok := false
			for _, a := range h.AuthFields() {
				if a.Authorizes(h.Ingress) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("path %s: hop %d ingress %d unauthorized", p, i, h.Ingress)
			}
		}
		// Consecutive hops must be joined by a real topology link.
		if i > 0 {
			prev := p.Hops[i-1]
			intf := topo.AS(prev.IA).Interfaces[prev.Egress]
			if intf == nil {
				t.Errorf("path %s: hop %d egress %d does not exist at %s", p, i-1, prev.Egress, prev.IA)
				continue
			}
			if intf.Remote != h.IA || intf.RemoteID != h.Ingress {
				t.Errorf("path %s: hop %d-%d not a topology link", p, i-1, i)
			}
		}
	}
	if p.Hops[0].Ingress != 0 || p.Hops[len(p.Hops)-1].Egress != 0 {
		t.Errorf("path %s: endpoints must use interface 0", p)
	}
}

func TestPathsLeafToLeafSameISD(t *testing.T) {
	topo, _, c := combinerWorld(t)
	paths := c.Paths(topology.AS111, topology.AS121, during)
	if len(paths) < 3 {
		t.Fatalf("found %d paths 111->121, want >= 3 (core, shortcut variants, peering)", len(paths))
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
	}
	// The peering path 111~121 must exist and be the lowest-latency option:
	// 6ms direct vs 3+5+3=11ms via the cores.
	best := paths[0]
	if len(best.Hops) != 2 {
		t.Fatalf("best path %s has %d hops, want 2 (peering)", best, len(best.Hops))
	}
	if best.Meta.Latency != 6*time.Millisecond {
		t.Fatalf("best latency = %v, want 6ms", best.Meta.Latency)
	}
}

func TestPathsInterISD(t *testing.T) {
	topo, _, c := combinerWorld(t)
	paths := c.Paths(topology.AS111, topology.AS211, during)
	if len(paths) < 2 {
		t.Fatalf("found %d paths 111->211, want >= 2", len(paths))
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
		if p.Meta.ISDs()[0] != 1 {
			t.Errorf("path %s does not start in ISD 1", p)
		}
	}
	// Fastest: 111 ->(3) 110 ->(5) 120 ->(80) 210 ->(3) 211 = 91ms
	// (via peering 111~121->121->120: 6+3+80+3 = 92ms is close behind;
	// direct 110->210: 3+120+3 = 126ms).
	if paths[0].Meta.Latency != 91*time.Millisecond {
		t.Fatalf("best inter-ISD latency = %v, want 91ms", paths[0].Meta.Latency)
	}
}

func TestPathsShortcutCommonAncestor(t *testing.T) {
	topo, _, c := combinerWorld(t)
	// 122 and 121: 121 is an ancestor of 122, so the 1-link path must exist.
	paths := c.Paths(topology.AS122, topology.AS121, during)
	if len(paths) == 0 {
		t.Fatal("no paths 122->121")
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
	}
	best := paths[0]
	if len(best.Hops) != 2 || best.Meta.Latency != 2*time.Millisecond {
		t.Fatalf("best path %s latency %v, want direct 2-hop 2ms", best, best.Meta.Latency)
	}
}

func TestPathsSiblingShortcut(t *testing.T) {
	topo, _, c := combinerWorld(t)
	// 111 and 112 are siblings under 110: shortcut via 110 (3+4=7ms) beats
	// any longer combination.
	paths := c.Paths(topology.AS111, topology.AS112, during)
	if len(paths) == 0 {
		t.Fatal("no paths 111->112")
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
	}
	best := paths[0]
	if len(best.Hops) != 3 || best.Meta.Latency != 7*time.Millisecond {
		t.Fatalf("best path %s latency %v, want 3-hop 7ms via 110", best, best.Meta.Latency)
	}
	// The joint at 110 carries two auth fields.
	if best.Hops[1].NumAuth != 2 {
		t.Fatalf("cross-over hop auth count = %d, want 2", best.Hops[1].NumAuth)
	}
}

func TestPathsToCoreAS(t *testing.T) {
	topo, _, c := combinerWorld(t)
	paths := c.Paths(topology.AS111, topology.Core210, during)
	if len(paths) == 0 {
		t.Fatal("no paths 111->210")
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
		if p.Dst != topology.Core210 {
			t.Errorf("path %s wrong destination", p)
		}
	}
}

func TestPathsFromCoreToCore(t *testing.T) {
	topo, _, c := combinerWorld(t)
	paths := c.Paths(topology.Core110, topology.Core220, during)
	if len(paths) < 2 {
		t.Fatalf("found %d paths 110->220, want >= 2 (via 120, via 210)", len(paths))
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
	}
	// Best: 110->120->220 = 5+70 = 75ms.
	if paths[0].Meta.Latency != 75*time.Millisecond {
		t.Fatalf("best 110->220 latency = %v, want 75ms", paths[0].Meta.Latency)
	}
}

func TestPathsSameAS(t *testing.T) {
	_, _, c := combinerWorld(t)
	paths := c.Paths(topology.AS111, topology.AS111, during)
	if len(paths) != 1 || len(paths[0].Hops) != 0 {
		t.Fatalf("same-AS paths = %v", paths)
	}
}

func TestPathsMetadataAggregation(t *testing.T) {
	topo, _, c := combinerWorld(t)
	paths := c.Paths(topology.AS111, topology.AS211, during)
	for _, p := range paths {
		wantCarbon := 0.0
		for _, ia := range p.Meta.ASes {
			wantCarbon += topo.AS(ia).CarbonIntensity
		}
		if p.Meta.CarbonPerGB != wantCarbon {
			t.Errorf("path %s carbon = %v, want %v", p, p.Meta.CarbonPerGB, wantCarbon)
		}
		if p.Meta.MTU <= 0 || p.Meta.MTU > 1400 {
			t.Errorf("path %s MTU = %d, want (0, 1400]", p, p.Meta.MTU)
		}
		if p.Meta.Bandwidth != 1_000_000_000 {
			t.Errorf("path %s bandwidth = %d", p, p.Meta.Bandwidth)
		}
		if !p.Meta.Expiry.After(during) {
			t.Errorf("path %s already expired", p)
		}
		if len(p.Meta.Countries) == 0 {
			t.Errorf("path %s has no country decoration", p)
		}
	}
}

func TestPathsDeterministicOrder(t *testing.T) {
	_, _, c := combinerWorld(t)
	a := c.Paths(topology.AS111, topology.AS221, during)
	b := c.Paths(topology.AS111, topology.AS221, during)
	if len(a) != len(b) {
		t.Fatal("nondeterministic path count")
	}
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatal("nondeterministic path order")
		}
	}
}

func TestPathsExpiredAtQueryTime(t *testing.T) {
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	svc := beacon.NewService(topo, infra, reg, time.Hour)
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	c := pathdb.NewCombiner(reg)
	if got := c.Paths(topology.AS111, topology.AS211, t0.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("expired query returned %d paths", len(got))
	}
}

func TestPathCountIsRich(t *testing.T) {
	// The paper argues SCION offers "dozens" of path choices; our small
	// 10-AS topology should still offer meaningful diversity end to end.
	_, _, c := combinerWorld(t)
	total := 0
	pairs := [][2]addr.IA{
		{topology.AS111, topology.AS211},
		{topology.AS111, topology.AS221},
		{topology.AS112, topology.AS221},
		{topology.AS122, topology.AS211},
	}
	for _, pr := range pairs {
		total += len(c.Paths(pr[0], pr[1], during))
	}
	if total < 12 {
		t.Fatalf("total inter-ISD path options = %d, want >= 12", total)
	}
}

// BenchmarkPathCombination measures end-to-end path assembly (up, core and
// down joins, shortcuts, peering) for an inter-ISD pair.
func BenchmarkPathCombination(b *testing.B) {
	_, _, comb := combinerWorld(b)
	b.ResetTimer()
	for range b.N {
		if len(comb.Paths(topology.AS111, topology.AS211, during)) == 0 {
			b.Fatal("no paths")
		}
	}
}
