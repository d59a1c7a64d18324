package policy

import (
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

func mkPath(carbon float64, countries []string, ias ...addr.IA) *segment.Path {
	p := &segment.Path{Src: ias[0], Dst: ias[len(ias)-1]}
	for i, ia := range ias {
		var in, out addr.IfID
		if i > 0 {
			in = 1
		}
		if i < len(ias)-1 {
			out = 2
		}
		p.Hops = append(p.Hops, segment.Hop{IA: ia, Ingress: in, Egress: out})
	}
	p.Meta = segment.Metadata{
		ASes: ias, CarbonPerGB: carbon, Countries: countries,
		Latency: 10 * time.Millisecond, Bandwidth: 1e9, MTU: 1400,
	}
	return p
}

var (
	domestic = mkPath(100, []string{"CH"}, addr.MustIA(1, 1), addr.MustIA(1, 2))
	foreign  = mkPath(500, []string{"CH", "JP"}, addr.MustIA(1, 1), addr.MustIA(2, 1), addr.MustIA(2, 2))
)

func TestBlockGeofence(t *testing.T) {
	g := NewBlockGeofence(2)
	if !g.Compliant(domestic) {
		t.Error("domestic path rejected")
	}
	if g.Compliant(foreign) {
		t.Error("path through blocked ISD accepted")
	}
	var nilFence *Geofence
	if !nilFence.Compliant(foreign) {
		t.Error("nil geofence must accept everything")
	}
}

func TestAllowGeofence(t *testing.T) {
	g := NewAllowGeofence(1)
	if !g.Compliant(domestic) {
		t.Error("allowed path rejected")
	}
	if g.Compliant(foreign) {
		t.Error("path leaving the allowlist accepted")
	}
	g2 := NewAllowGeofence(1, 2)
	if !g2.Compliant(foreign) {
		t.Error("path within extended allowlist rejected")
	}
}

func TestGeofencePolicyCompilesToACL(t *testing.T) {
	g := NewBlockGeofence(2)
	pol := g.Policy()
	if pol.ACL == nil || len(pol.ACL.Entries) != 2 {
		t.Fatalf("compiled policy %+v", pol)
	}
	if pol.Accepts(foreign) {
		t.Error("compiled ACL accepted blocked path")
	}
	if !pol.Accepts(domestic) {
		t.Error("compiled ACL rejected allowed path")
	}
	allow := NewAllowGeofence(1).Policy()
	if allow.Accepts(foreign) || !allow.Accepts(domestic) {
		t.Error("compiled allowlist ACL wrong")
	}
}

func TestGeofenceString(t *testing.T) {
	s := NewBlockGeofence(2, 1).String()
	if !strings.Contains(s, "block") || !strings.Contains(s, "[1 2]") {
		t.Fatalf("String() = %q", s)
	}
}

func TestPresets(t *testing.T) {
	paths := []*segment.Path{foreign, domestic}
	if got := LowLatency().Filter(paths); len(got) != 2 {
		t.Fatal("low latency dropped paths")
	}
	green := GreenRouting(200)
	got := green.Filter(paths)
	if len(got) != 1 || got[0] != domestic {
		t.Fatalf("green routing kept %d paths", len(got))
	}
	if HighBandwidth().Name == "" || FewestHops().Name == "" || LargestMTU().Name == "" {
		t.Fatal("presets must be named")
	}
}

func TestCountryAvoidance(t *testing.T) {
	c := NewCountryAvoidance("JP")
	if !c.Compliant(domestic) {
		t.Error("domestic path rejected")
	}
	if c.Compliant(foreign) {
		t.Error("path through blocked country accepted")
	}
	var nilC *CountryAvoidance
	if !nilC.Compliant(foreign) {
		t.Error("nil avoidance must accept everything")
	}
}

// BenchmarkGeofenceCompliance measures ISD-level geofence checks.
func BenchmarkGeofenceCompliance(b *testing.B) {
	fence := NewBlockGeofence(3, 4, 5)
	for range b.N {
		if !fence.Compliant(domestic) || !fence.Compliant(foreign) {
			b.Fatal("unexpected violation")
		}
	}
}
