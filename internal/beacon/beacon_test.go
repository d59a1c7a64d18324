package beacon

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pathdb"
	"tango/internal/segment"
	"tango/internal/topology"
)

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	t1     = t0.Add(24 * time.Hour)
	during = t0.Add(time.Hour)
)

// world runs a full beaconing round over the default topology.
func world(t testing.TB) (*topology.Topology, *Infra, *pathdb.Registry) {
	t.Helper()
	topo := topology.Default()
	infra, err := NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	svc := NewService(topo, infra, reg, 12*time.Hour)
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	return topo, infra, reg
}

func TestBeaconingRegistersSegments(t *testing.T) {
	_, _, reg := world(t)
	up, down, core := reg.Counts()
	if up == 0 || down == 0 || core == 0 {
		t.Fatalf("segment counts up=%d down=%d core=%d", up, down, core)
	}
	// Up and down segments are registered from the same terminal PCBs.
	if up != down {
		t.Fatalf("up=%d down=%d, want equal", up, down)
	}
}

func TestEveryNonCoreASHasUpSegments(t *testing.T) {
	topo, _, reg := world(t)
	for _, as := range topo.ASes() {
		if as.Core {
			continue
		}
		segs := reg.UpSegments(as.IA, during)
		if len(segs) == 0 {
			t.Errorf("AS %s has no up segments", as.IA)
		}
		for _, s := range segs {
			if s.LastIA() != as.IA {
				t.Errorf("up segment for %s terminates at %s", as.IA, s.LastIA())
			}
			core := topo.AS(s.FirstIA())
			if core == nil || !core.Core {
				t.Errorf("up segment for %s originates at non-core %s", as.IA, s.FirstIA())
			}
			if s.FirstIA().ISD != as.IA.ISD {
				t.Errorf("up segment for %s originates in foreign ISD %s", as.IA, s.FirstIA())
			}
		}
	}
}

func TestSegmentsVerifyAgainstStore(t *testing.T) {
	topo, infra, reg := world(t)
	for _, as := range topo.ASes() {
		for _, s := range reg.UpSegments(as.IA, during) {
			if err := s.Verify(infra.Store, during); err != nil {
				t.Errorf("up segment of %s: %v", as.IA, err)
			}
		}
	}
}

func TestCoreSegmentsBothOrientations(t *testing.T) {
	_, _, reg := world(t)
	ab := reg.CoreSegments(topology.Core110, topology.Core210, during)
	ba := reg.CoreSegments(topology.Core210, topology.Core110, during)
	if len(ab) == 0 || len(ba) == 0 {
		t.Fatalf("core segments 110->210 = %d, 210->110 = %d", len(ab), len(ba))
	}
	// Multi-hop core segments exist (e.g. 110-120-210).
	multi := false
	for _, cs := range ab {
		if len(cs.Seg.Entries) > 2 {
			multi = true
		}
	}
	if !multi {
		t.Error("no multi-hop core segments discovered")
	}
}

func TestBeaconMetadataDecoration(t *testing.T) {
	topo, _, reg := world(t)
	segs := reg.UpSegments(topology.AS122, during)
	if len(segs) == 0 {
		t.Fatal("no up segments for 122")
	}
	var deep *segment.Segment
	for _, s := range segs {
		if len(s.Entries) == 3 { // 120 -> 121 -> 122
			deep = s
		}
	}
	if deep == nil {
		t.Fatal("no 3-hop up segment for 122")
	}
	if deep.Entries[0].Static.IngressLatency != 0 {
		t.Error("origin entry has nonzero ingress latency")
	}
	if got := deep.Entries[1].Static.IngressLatency; got != 3*time.Millisecond {
		t.Errorf("121 ingress latency = %v, want 3ms", got)
	}
	if got := deep.Entries[2].Static.IngressLatency; got != 2*time.Millisecond {
		t.Errorf("122 ingress latency = %v, want 2ms", got)
	}
	for i, e := range deep.Entries {
		want := topo.AS(e.Local)
		if e.Static.CarbonIntensity != want.CarbonIntensity {
			t.Errorf("entry %d carbon = %v, want %v", i, e.Static.CarbonIntensity, want.CarbonIntensity)
		}
		if e.Static.Geo.Country != want.Geo.Country {
			t.Errorf("entry %d country = %q", i, e.Static.Geo.Country)
		}
	}
}

func TestBeaconPeerEntries(t *testing.T) {
	_, _, reg := world(t)
	// AS111 peers with AS121; its up segments must advertise that link.
	found := false
	for _, s := range reg.UpSegments(topology.AS111, during) {
		last := s.Entries[len(s.Entries)-1]
		for _, p := range last.Peers {
			if p.Peer == topology.AS121 {
				found = true
				if p.Latency != 6*time.Millisecond {
					t.Errorf("peer link latency = %v, want 6ms", p.Latency)
				}
				if p.HopField.ConsEgress != last.HopField.ConsEgress {
					t.Error("peer hop field egress does not match entry egress")
				}
			}
		}
	}
	if !found {
		t.Fatal("no peer entry for 111~121 advertised")
	}
}

func TestBeaconHopFieldMACs(t *testing.T) {
	_, infra, reg := world(t)
	for _, s := range reg.UpSegments(topology.AS112, during) {
		for i, e := range s.Entries {
			key := infra.ForwardingKeys[e.Local]
			if !segment.VerifyMAC(key, s.Info, e.HopField) {
				t.Errorf("entry %d (%s): hop MAC invalid", i, e.Local)
			}
		}
	}
}

func TestBeaconExpiry(t *testing.T) {
	topo := topology.Default()
	infra, err := NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	svc := NewService(topo, infra, reg, time.Hour)
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	if len(reg.UpSegments(topology.AS111, t0.Add(2*time.Hour))) != 0 {
		t.Fatal("expired segments returned")
	}
	if len(reg.UpSegments(topology.AS111, t0.Add(30*time.Minute))) == 0 {
		t.Fatal("unexpired segments missing")
	}
}

func TestInfraCoversAllASes(t *testing.T) {
	topo, infra, _ := world(t)
	for _, as := range topo.ASes() {
		if infra.Signers[as.IA] == nil {
			t.Errorf("no signer for %s", as.IA)
		}
		if infra.ForwardingKeys[as.IA] == nil {
			t.Errorf("no forwarding key for %s", as.IA)
		}
	}
	if len(infra.Authorities) != 2 {
		t.Fatalf("authorities = %d, want 2", len(infra.Authorities))
	}
}

func TestRerunIsIdempotentPerContent(t *testing.T) {
	topo := topology.Default()
	infra, err := NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	svc := NewService(topo, infra, reg, 12*time.Hour)
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	up1, down1, core1 := reg.Counts()
	// A second round at the same instant re-registers identical content;
	// SegIDs differ so counts grow, but queries still work.
	if err := svc.Run(t0); err != nil {
		t.Fatal(err)
	}
	up2, down2, core2 := reg.Counts()
	if up2 < up1 || down2 < down1 || core2 < core1 {
		t.Fatal("second round lost segments")
	}
	_ = addr.WildcardISD
}

// BenchmarkBeaconRound measures one full beaconing round over the default
// topology: origination, propagation, signing and registration.
func BenchmarkBeaconRound(b *testing.B) {
	topo, infra, _ := world(b)
	b.ResetTimer()
	for range b.N {
		reg := pathdb.NewRegistry(infra.Store)
		if err := NewService(topo, infra, reg, 12*time.Hour).Run(t0); err != nil {
			b.Fatal(err)
		}
	}
}
