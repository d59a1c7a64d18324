package pathdb_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/pathdb"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// newWorld is the testbed world stepped by hand.
func newWorld(t testing.TB) *testbed.World { return testbed.New(t, testbed.NewClock(), nil, 1) }

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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	paths := c.Paths(topology.AS111, topology.AS121, testbed.Start)
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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	paths := c.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(paths) < 2 {
		t.Fatalf("found %d paths 111->211, want >= 2", len(paths))
	}
	for _, p := range paths {
		checkPathWellFormed(t, topo, p)
		if p.Meta.ASes[0].ISD != 1 {
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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	// 122 and 121: 121 is an ancestor of 122, so the 1-link path must exist.
	paths := c.Paths(topology.AS122, topology.AS121, testbed.Start)
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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	// 111 and 112 are siblings under 110: shortcut via 110 (3+4=7ms) beats
	// any longer combination.
	paths := c.Paths(topology.AS111, topology.AS112, testbed.Start)
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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	paths := c.Paths(topology.AS111, topology.Core210, testbed.Start)
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
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	paths := c.Paths(topology.Core110, topology.Core220, testbed.Start)
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
	c := newWorld(t).Combiner
	paths := c.Paths(topology.AS111, topology.AS111, testbed.Start)
	if len(paths) != 1 || len(paths[0].Hops) != 0 {
		t.Fatalf("same-AS paths = %v", paths)
	}
}

func TestPathsMetadataAggregation(t *testing.T) {
	w := newWorld(t)
	topo, c := w.Topo, w.Combiner
	paths := c.Paths(topology.AS111, topology.AS211, testbed.Start)
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
		if !p.Meta.Expiry.After(testbed.Start) {
			t.Errorf("path %s already expired", p)
		}
		if len(p.Meta.Countries) == 0 {
			t.Errorf("path %s has no country decoration", p)
		}
	}
}

func TestPathsDeterministicOrder(t *testing.T) {
	// Two combiners, so the second answer is recombined, not the cached
	// first one.
	reg := newWorld(t).Registry
	a := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS221, testbed.Start)
	b := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS221, testbed.Start)
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
	c := pathdb.NewCombiner(expiringRegistry(t))
	if got := c.Paths(topology.AS111, topology.AS211, testbed.Epoch.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("expired query returned %d paths", len(got))
	}
}

func TestPathCountIsRich(t *testing.T) {
	// The paper argues SCION offers "dozens" of path choices; our small
	// 10-AS topology should still offer meaningful diversity end to end.
	c := newWorld(t).Combiner
	total := 0
	pairs := [][2]addr.IA{
		{topology.AS111, topology.AS211},
		{topology.AS111, topology.AS221},
		{topology.AS112, topology.AS221},
		{topology.AS122, topology.AS211},
	}
	for _, pr := range pairs {
		total += len(c.Paths(pr[0], pr[1], testbed.Start))
	}
	if total < 12 {
		t.Fatalf("total inter-ISD path options = %d, want >= 12", total)
	}
}

// BenchmarkPathCombination measures end-to-end path assembly (up, core and
// down joins, shortcuts, peering) for an inter-ISD pair: cold, by a fresh
// combiner, and cached.
func BenchmarkPathCombination(b *testing.B) {
	reg := newWorld(b).Registry
	b.Run("cold", func(b *testing.B) {
		for range b.N {
			if len(pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, testbed.Start)) == 0 {
				b.Fatal("no paths")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := pathdb.NewCombiner(reg)
		for range b.N {
			if len(c.Paths(topology.AS111, topology.AS211, testbed.Start)) == 0 {
				b.Fatal("no paths")
			}
		}
	})
}

// assertSamePaths compares two answers by fingerprint and metadata.
func assertSamePaths(t *testing.T, got, want []*segment.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d paths, fresh combiner returns %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Fingerprint() != want[i].Fingerprint() || !reflect.DeepEqual(got[i].Meta, want[i].Meta) {
			t.Fatalf("path %d: %s %+v, fresh combiner returns %s %+v",
				i, got[i], got[i].Meta, want[i], want[i].Meta)
		}
	}
}

// TestCombinerPathsAllocs holds a warm query at zero allocations: a cache
// hit scans no registry and returns the shared answer itself.
func TestCombinerPathsAllocs(t *testing.T) {
	c := newWorld(t).Combiner
	first := c.Paths(topology.AS111, topology.AS211, testbed.Start)
	if len(first) == 0 {
		t.Fatal("no paths")
	}
	later := testbed.Start.Add(time.Minute)
	allocs := testing.AllocsPerRun(100, func() {
		if got := c.Paths(topology.AS111, topology.AS211, later); &got[0] != &first[0] {
			t.Fatal("warm query did not return the cached answer")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Paths allocates %.1f, want 0", allocs)
	}
}

// TestCombinerCacheRegistrationInvalidates registers the core segments an
// AS111 -> AS211 path needs one at a time after a first query: every answer
// must equal a fresh combiner's.
func TestCombinerCacheRegistrationInvalidates(t *testing.T) {
	w := newWorld(t)
	topo, infra, src := w.Topo, w.Infra, w.Registry
	reg := pathdb.NewRegistry(infra.Store)
	for _, seg := range src.UpSegments(topology.AS111, testbed.Start) {
		if err := reg.RegisterUp(seg, testbed.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range src.DownSegments(topology.AS211, testbed.Start) {
		if err := reg.RegisterDown(seg, testbed.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	c := pathdb.NewCombiner(reg)
	if got := c.Paths(topology.AS111, topology.AS211, testbed.Start); len(got) != 0 {
		t.Fatalf("%d inter-ISD paths without core segments", len(got))
	}
	cores := topo.CoreASes(addr.WildcardISD)
	grew := 0
	for _, a := range cores {
		for _, b := range cores {
			for _, cs := range src.CoreSegments(a.IA, b.IA, testbed.Start) {
				before := len(c.Paths(topology.AS111, topology.AS211, testbed.Start))
				if err := reg.RegisterCore(cs.Seg, testbed.Epoch); err != nil {
					t.Fatal(err)
				}
				got := c.Paths(topology.AS111, topology.AS211, testbed.Start)
				assertSamePaths(t, got, pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, testbed.Start))
				if len(got) > before {
					grew++
				}
			}
		}
	}
	if grew < 2 {
		t.Fatalf("only %d registrations added paths, want >= 2", grew)
	}
}

// expiringRegistry beacons the default topology at testbed.Epoch with
// one-hour segments.
func expiringRegistry(t *testing.T) *pathdb.Registry {
	t.Helper()
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, testbed.Epoch, testbed.Epoch.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	if err := beacon.NewService(topo, infra, reg, time.Hour).Run(testbed.Epoch); err != nil {
		t.Fatal(err)
	}
	return reg
}

// expiringCombiner returns a combiner over expiringRegistry's segments and
// the paths' earliest expiry.
func expiringCombiner(t *testing.T) (*pathdb.Combiner, *pathdb.Registry, time.Time) {
	t.Helper()
	reg := expiringRegistry(t)
	var exp time.Time
	for _, p := range pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, testbed.Epoch) {
		if exp.IsZero() || p.Meta.Expiry.Before(exp) {
			exp = p.Meta.Expiry
		}
	}
	if exp.IsZero() {
		t.Fatal("no paths")
	}
	return pathdb.NewCombiner(reg), reg, exp
}

// TestCombinerCacheExpiryInvalidates queries just before and at the
// earliest expiry: the first is served from the cache, the second must be
// recomputed.
func TestCombinerCacheExpiryInvalidates(t *testing.T) {
	c, reg, exp := expiringCombiner(t)
	first := c.Paths(topology.AS111, topology.AS211, testbed.Epoch)
	if len(first) == 0 {
		t.Fatal("no paths")
	}
	if got := c.Paths(topology.AS111, topology.AS211, exp.Add(-time.Nanosecond)); len(got) == 0 || &got[0] != &first[0] {
		t.Fatal("query before the earliest expiry was not served from the cache")
	}
	for _, at := range []time.Time{exp, exp.Add(time.Minute)} {
		assertSamePaths(t, c.Paths(topology.AS111, topology.AS211, at),
			pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, at))
	}
}

// TestCombinerCacheEarlierInstantRecomputes queries after every segment
// expired, then at an earlier instant, when the segments were valid.
func TestCombinerCacheEarlierInstantRecomputes(t *testing.T) {
	c, reg, exp := expiringCombiner(t)
	if got := c.Paths(topology.AS111, topology.AS211, exp.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("%d paths after expiry", len(got))
	}
	got := c.Paths(topology.AS111, topology.AS211, testbed.Epoch)
	if len(got) == 0 {
		t.Fatal("earlier query served the later, empty answer")
	}
	assertSamePaths(t, got, pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, testbed.Epoch))
}

// TestCombinerConcurrentQueries queries every pair from several goroutines
// while beaconing registers a second round of segments; run it under
// -race. Afterwards every answer must equal a fresh combiner's.
func TestCombinerConcurrentQueries(t *testing.T) {
	w := newWorld(t)
	topo, infra, reg := w.Topo, w.Infra, w.Registry
	c := pathdb.NewCombiner(reg)
	ases := topo.ASes()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 5 {
				at := testbed.Start.Add(time.Duration(g*5+i) * time.Minute)
				for _, a := range ases {
					for _, b := range ases {
						c.Paths(a.IA, b.IA, at)
					}
				}
			}
		}()
	}
	second := beacon.NewService(topo, infra, reg, 12*time.Hour).Run(testbed.Epoch.Add(time.Minute))
	wg.Wait()
	if second != nil {
		t.Fatal(second)
	}
	at := testbed.Start.Add(time.Hour)
	for _, a := range ases {
		for _, b := range ases {
			got := c.Paths(a.IA, b.IA, at)
			assertSamePaths(t, got, pathdb.NewCombiner(reg).Paths(a.IA, b.IA, at))
		}
	}
}
