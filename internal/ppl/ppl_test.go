package ppl

import (
	"encoding/json"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

var (
	ia110 = addr.MustIA(1, 0xff00_0000_0110)
	ia111 = addr.MustIA(1, 0xff00_0000_0111)
	ia120 = addr.MustIA(1, 0xff00_0000_0120)
	ia210 = addr.MustIA(2, 0xff00_0000_0210)
	ia211 = addr.MustIA(2, 0xff00_0000_0211)
)

// mkPath builds a path through the given hops (ingress/egress synthesized).
func mkPath(lat time.Duration, bw int64, carbon float64, ias ...addr.IA) *segment.Path {
	p := &segment.Path{Src: ias[0], Dst: ias[len(ias)-1]}
	for i, ia := range ias {
		var in, out addr.IfID
		if i > 0 {
			in = addr.IfID(i)
		}
		if i < len(ias)-1 {
			out = addr.IfID(i + 10)
		}
		p.Hops = append(p.Hops, segment.Hop{IA: ia, Ingress: in, Egress: out})
	}
	p.Meta = segment.Metadata{Latency: lat, Bandwidth: bw, CarbonPerGB: carbon, ASes: ias, MTU: 1400}
	return p
}

func TestParseHopPredicate(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"0", "0-0", true},
		{"1", "1-0", true},
		{"1-ff00:0:110", "1-ff00:0:110", true},
		{"1-ff00:0:110#0", "1-ff00:0:110#0", true},
		{"1-ff00:0:110#1,2", "1-ff00:0:110#1,2", true},
		{"1-0#1,2", "", false}, // interface pair on wildcard AS
		{"1-ff00:0:110#1,2,3", "", false},
		{"x", "", false},
		{"1-ff00:0:110#a", "", false},
	}
	for _, c := range cases {
		hp, err := ParseHopPredicate(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseHopPredicate(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && hp.String() != c.want {
			t.Errorf("ParseHopPredicate(%q).String() = %q, want %q", c.in, hp.String(), c.want)
		}
	}
}

func TestHopPredicateMatching(t *testing.T) {
	hop := segment.Hop{IA: ia110, Ingress: 1, Egress: 2}
	cases := []struct {
		pred string
		want bool
	}{
		{"0", true},
		{"1", true},
		{"2", false},
		{"1-ff00:0:110", true},
		{"1-ff00:0:111", false},
		{"1-ff00:0:110#1", true},
		{"1-ff00:0:110#2", true},
		{"1-ff00:0:110#3", false},
		{"1-ff00:0:110#1,2", true},
		{"1-ff00:0:110#2,1", false},
		{"1-ff00:0:110#0,2", true},
		{"1-ff00:0:110#1,0", true},
	}
	for _, c := range cases {
		hp, err := ParseHopPredicate(c.pred)
		if err != nil {
			t.Fatal(err)
		}
		if got := hp.MatchesHop(hop); got != c.want {
			t.Errorf("%q matches %v = %v, want %v", c.pred, hop.IA, got, c.want)
		}
	}
}

func TestACLGeofence(t *testing.T) {
	// Block ISD 2, allow everything else — ISD-level geofencing (paper §4.1).
	acl, err := ParseACL("- 2", "+")
	if err != nil {
		t.Fatal(err)
	}
	domestic := mkPath(10*time.Millisecond, 1e9, 100, ia111, ia110, ia120)
	foreign := mkPath(90*time.Millisecond, 1e9, 100, ia111, ia110, ia210, ia211)
	if !acl.Eval(domestic) {
		t.Error("domestic path rejected")
	}
	if acl.Eval(foreign) {
		t.Error("path through blocked ISD accepted")
	}
}

func TestACLFirstMatchWins(t *testing.T) {
	acl, err := ParseACL("+ 1-ff00:0:110", "- 1", "+")
	if err != nil {
		t.Fatal(err)
	}
	via110 := mkPath(0, 0, 0, ia210, ia110, ia211)
	via120 := mkPath(0, 0, 0, ia210, ia120, ia211)
	if !acl.Eval(via110) {
		t.Error("first-match allow did not win")
	}
	if acl.Eval(via120) {
		t.Error("later deny did not apply")
	}
}

func TestACLImplicitDenyAll(t *testing.T) {
	acl, err := ParseACL("+ 1")
	if err != nil {
		t.Fatal(err)
	}
	if acl.Eval(mkPath(0, 0, 0, ia111, ia110, ia210)) {
		t.Error("hop with no matching entry should be denied (fail closed)")
	}
}

func TestACLParseErrors(t *testing.T) {
	for _, bad := range []string{"", "* 1", "1-ff00:0:110", "+ bogus"} {
		if _, err := ParseACL(bad); err == nil {
			t.Errorf("ParseACL(%q) succeeded", bad)
		}
	}
}

func TestSequenceBasic(t *testing.T) {
	p := mkPath(0, 0, 0, ia111, ia110, ia120, ia210, ia211)
	cases := []struct {
		seq  string
		want bool
	}{
		{"0*", true},
		{"1-ff00:0:111 0*", true},
		{"0* 2-ff00:0:211", true},
		{"1-ff00:0:111 0* 2-ff00:0:211", true},
		{"0* 1-ff00:0:120 0*", true},
		{"0* 1-ff00:0:122 0*", false},
		{"1 1 1 2 2", true},
		{"1 1 2 2 2", false},
		{"0* (1-ff00:0:120|1-ff00:0:110) 0*", true},
		{"1-ff00:0:111", false}, // must match the whole path
		{"0 0 0 0 0", true},
		{"0 0 0 0", false},
		{"0+", true},
		{"1+ 2+", true},
		{"2+ 1+", false},
	}
	for _, c := range cases {
		seq, err := ParseSequence(c.seq)
		if err != nil {
			t.Fatalf("ParseSequence(%q): %v", c.seq, err)
		}
		if got := seq.Eval(p); got != c.want {
			t.Errorf("sequence %q = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestSequenceInterfaces(t *testing.T) {
	p := mkPath(0, 0, 0, ia111, ia110, ia210)
	// Hop 1 (110) has ingress 1, egress 11 per mkPath.
	seq, err := ParseSequence("0 1-ff00:0:110#1,11 0")
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Eval(p) {
		t.Error("interface pair did not match")
	}
	seq2, _ := ParseSequence("0 1-ff00:0:110#11 0")
	if !seq2.Eval(p) {
		t.Error("single interface (egress side) did not match")
	}
	seq3, _ := ParseSequence("0 1-ff00:0:110#7 0")
	if seq3.Eval(p) {
		t.Error("wrong interface matched")
	}
}

func TestSequenceParseErrors(t *testing.T) {
	for _, bad := range []string{"bogus", "1-ff00:0:110#1,2,3", "(1"} {
		if _, err := ParseSequence(bad); err == nil {
			t.Errorf("ParseSequence(%q) succeeded", bad)
		}
	}
}

func TestPolicyFilters(t *testing.T) {
	fast := mkPath(10*time.Millisecond, 2e9, 400, ia111, ia110, ia210)
	slow := mkPath(100*time.Millisecond, 1e9, 100, ia111, ia120, ia210)
	long := mkPath(50*time.Millisecond, 5e8, 200, ia111, ia110, ia120, ia210)
	paths := []*segment.Path{fast, slow, long}

	cases := []struct {
		name string
		pol  Policy
		want []*segment.Path
	}{
		{"latency cap", Policy{MaxLatency: 60 * time.Millisecond}, []*segment.Path{fast, long}},
		{"bandwidth floor", Policy{MinBandwidth: 1e9}, []*segment.Path{fast, slow}},
		{"carbon cap", Policy{MaxCarbon: 250}, []*segment.Path{slow, long}},
		{"hop cap", Policy{MaxHops: 3}, []*segment.Path{fast, slow}},
		{"zero accepts all", Policy{}, paths},
	}
	for _, c := range cases {
		got := c.pol.Filter(paths)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d paths, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: path %d mismatch", c.name, i)
			}
		}
	}
}

func TestPolicyOrderings(t *testing.T) {
	a := mkPath(10*time.Millisecond, 1e9, 400, ia111, ia210)
	b := mkPath(50*time.Millisecond, 2e9, 100, ia111, ia210)
	c := mkPath(50*time.Millisecond, 5e8, 200, ia111, ia210)
	paths := []*segment.Path{c, b, a}

	latFirst := Policy{Orderings: []Ordering{OrderLatency, OrderBandwidth}}
	got := latFirst.Filter(paths)
	if got[0] != a || got[1] != b || got[2] != c {
		t.Error("latency-then-bandwidth ordering wrong")
	}
	co2 := Policy{Orderings: []Ordering{OrderCarbon}}
	got = co2.Filter(paths)
	if got[0] != b || got[1] != c || got[2] != a {
		t.Error("carbon ordering wrong")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	doc := `{
		"name": "geofence-and-green",
		"acl": ["- 2", "+"],
		"sequence": "1-ff00:0:111 0*",
		"max_latency_ms": 80,
		"max_carbon_g_per_gb": 500,
		"ordering": ["carbon", "latency"]
	}`
	var p Policy
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "geofence-and-green" || p.MaxLatency != 80*time.Millisecond || p.MaxCarbon != 500 {
		t.Fatalf("parsed %+v", p)
	}
	if len(p.ACL.Entries) != 2 || p.Sequence == nil || len(p.Orderings) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	out, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	var p2 Policy
	if err := json.Unmarshal(out, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Name != p.Name || p2.MaxLatency != p.MaxLatency || len(p2.ACL.Entries) != 2 {
		t.Fatal("round trip lost data")
	}
}

func TestPolicyJSONUnknownOrdering(t *testing.T) {
	var p Policy
	if err := json.Unmarshal([]byte(`{"ordering":["speed"]}`), &p); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

func TestIntersect(t *testing.T) {
	geofence := &Policy{ACL: mustACL(t, "- 2", "+"), Orderings: []Ordering{OrderLatency}}
	green := &Policy{MaxCarbon: 300, Orderings: []Ordering{OrderCarbon}}
	combined := Intersect("combo", geofence, green)

	ok := mkPath(10*time.Millisecond, 1e9, 200, ia111, ia110, ia120)
	dirty := mkPath(10*time.Millisecond, 1e9, 900, ia111, ia110, ia120)
	foreign := mkPath(10*time.Millisecond, 1e9, 100, ia111, ia110, ia210)

	if !combined.Accepts(ok) {
		t.Error("clean domestic path rejected")
	}
	if combined.Accepts(dirty) {
		t.Error("dirty path accepted despite carbon cap")
	}
	if combined.Accepts(foreign) {
		t.Error("foreign path accepted despite geofence")
	}
	if len(combined.Orderings) != 2 {
		t.Errorf("orderings = %v", combined.Orderings)
	}
}

func TestIntersectSequences(t *testing.T) {
	s1, _ := ParseSequence("1-ff00:0:111 0*")
	s2, _ := ParseSequence("0* 1-ff00:0:120 0*")
	combined := Intersect("seqs", &Policy{Sequence: s1}, &Policy{Sequence: s2})
	through120 := mkPath(0, 0, 0, ia111, ia110, ia120)
	direct := mkPath(0, 0, 0, ia111, ia110)
	if !combined.Accepts(through120) {
		t.Error("path satisfying both sequences rejected")
	}
	if combined.Accepts(direct) {
		t.Error("path violating second sequence accepted")
	}
}

func mustACL(t *testing.T, entries ...string) *ACL {
	t.Helper()
	acl, err := ParseACL(entries...)
	if err != nil {
		t.Fatal(err)
	}
	return acl
}

// BenchmarkPPLPolicyEval measures full policy evaluation (ACL, sequence,
// metric caps and orderings) over six paths of an inter-ISD pair: one
// crosses a denied AS and one is over the latency cap.
func BenchmarkPPLPolicyEval(b *testing.B) {
	ia220 := addr.MustIA(2, 0xff00_0000_0220)
	paths := []*segment.Path{
		mkPath(60*time.Millisecond, 1e9, 10, ia111, ia110, ia210, ia211),
		mkPath(80*time.Millisecond, 1e9, 5, ia111, ia120, ia210, ia211),
		mkPath(90*time.Millisecond, 5e8, 20, ia111, ia110, ia120, ia210, ia211),
		mkPath(70*time.Millisecond, 1e9, 8, ia111, ia110, ia220, ia211),
		mkPath(250*time.Millisecond, 1e9, 1, ia111, ia120, ia210, ia211),
		mkPath(120*time.Millisecond, 2e9, 15, ia111, ia110, ia210, ia220, ia211),
	}
	seq, err := ParseSequence("1-ff00:0:111 0* 2-ff00:0:211")
	if err != nil {
		b.Fatal(err)
	}
	acl, err := ParseACL("- 2-ff00:0:220", "+")
	if err != nil {
		b.Fatal(err)
	}
	pol := &Policy{
		ACL: acl, Sequence: seq, MaxLatency: 200 * time.Millisecond,
		Orderings: []Ordering{OrderCarbon, OrderLatency},
	}
	b.ResetTimer()
	for range b.N {
		if len(pol.Filter(paths)) != 3 {
			b.Fatal("policy kept the wrong paths")
		}
	}
}
