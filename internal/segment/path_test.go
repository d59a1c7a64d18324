package segment

import (
	"testing"
	"time"

	"tango/internal/addr"
)

func samplePath() *Path {
	return &Path{
		Src: ia111,
		Dst: ia112,
		Hops: []Hop{
			{IA: ia111, Ingress: 0, Egress: 2},
			{IA: ia110, Ingress: 1, Egress: 4},
			{IA: ia112, Ingress: 3, Egress: 0},
		},
		Meta: Metadata{
			Latency:     7 * time.Millisecond,
			Bandwidth:   1e9,
			MTU:         1400,
			ASes:        []addr.IA{ia111, ia110, ia112},
			Countries:   []string{"CH"},
			CarbonPerGB: 270,
		},
	}
}

func TestPathReversed(t *testing.T) {
	p := samplePath()
	r := p.Reversed()
	if r.Src != p.Dst || r.Dst != p.Src {
		t.Fatal("endpoints not swapped")
	}
	if len(r.Hops) != len(p.Hops) {
		t.Fatal("hop count changed")
	}
	first := r.Hops[0]
	if first.IA != ia112 || first.Ingress != 0 || first.Egress != 3 {
		t.Fatalf("first reversed hop %+v", first)
	}
	last := r.Hops[2]
	if last.IA != ia111 || last.Ingress != 2 || last.Egress != 0 {
		t.Fatalf("last reversed hop %+v", last)
	}
	if r.Meta.ASes[0] != ia112 || r.Meta.ASes[2] != ia111 {
		t.Fatalf("metadata AS order %v", r.Meta.ASes)
	}
	// Double reversal is the identity on hops.
	rr := r.Reversed()
	for i := range p.Hops {
		if rr.Hops[i] != p.Hops[i] {
			t.Fatalf("double reversal changed hop %d", i)
		}
	}
}

func TestPathReversedDoesNotMutate(t *testing.T) {
	p := samplePath()
	orig := p.Hops[0]
	_ = p.Reversed()
	if p.Hops[0] != orig {
		t.Fatal("Reversed mutated the original")
	}
}

func TestPathFingerprint(t *testing.T) {
	p := samplePath()
	q := samplePath()
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("same path, different fingerprints")
	}
	// Paths are immutable once built (Fingerprint memoizes on first use),
	// so the divergent path is modified BEFORE its first fingerprint.
	r := samplePath()
	r.Hops[1].Egress = 9
	if p.Fingerprint() == r.Fingerprint() {
		t.Fatal("different paths share a fingerprint")
	}
	if p.Fingerprint() == p.Reversed().Fingerprint() {
		t.Fatal("reversed path shares fingerprint with forward path")
	}
}

// TestPathFingerprintGolden pins the fingerprints of fixed paths: they are
// map keys across the monitor, selectors and pools, so a change in how they
// are computed must not change their values.
func TestPathFingerprintGolden(t *testing.T) {
	ia := addr.MustIA
	for _, c := range []struct {
		hops []Hop
		want string
	}{
		{nil, "e3b0c44298fc1c14"},
		{[]Hop{{IA: ia(1, 0xff00_0000_0111), Egress: 2}, {IA: ia(1, 0xff00_0000_0110), Ingress: 5}}, "67f93d222616f244"},
		{[]Hop{
			{IA: ia(1, 0xff00_0000_0111), Egress: 1},
			{IA: ia(1, 0xff00_0000_0110), Ingress: 3, Egress: 7},
			{IA: ia(2, 0xff00_0000_0210), Ingress: 1, Egress: 4},
			{IA: ia(2, 0xff00_0000_0211), Ingress: 2},
		}, "3b1ecaae09fc45d3"},
		{[]Hop{{IA: ia(64, 559), Egress: 65535}, {IA: ia(65535, 4294967295), Ingress: 1, Egress: 2}, {IA: ia(0, 0), Ingress: 300}}, "5f00c104ed26220f"},
		{[]Hop{{IA: ia(17, 4294967296), Egress: 12}, {IA: ia(17, 0xffff_ffff_ffff), Ingress: 9}}, "e95fc2df8cdfdf0e"},
	} {
		p := &Path{Hops: c.hops}
		if got := p.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint(%v) = %q, want %q", c.hops, got, c.want)
		}
	}
}

func TestPathString(t *testing.T) {
	p := samplePath()
	want := "1-ff00:0:111 2>1 1-ff00:0:110 4>3 1-ff00:0:112"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	empty := &Path{Src: ia111, Dst: ia111}
	if got := empty.String(); got == "" {
		t.Fatal("empty path renders empty string")
	}
}

func TestMetadataISDs(t *testing.T) {
	m := Metadata{ASes: []addr.IA{
		addr.MustIA(1, 1), addr.MustIA(1, 2), addr.MustIA(2, 1), addr.MustIA(2, 2),
	}}
	isds := m.ISDs()
	if len(isds) != 2 || isds[0] != 1 || isds[1] != 2 {
		t.Fatalf("ISDs = %v", isds)
	}
}

func TestHopCount(t *testing.T) {
	if got := samplePath().HopCount(); got != 3 {
		t.Fatalf("HopCount = %d", got)
	}
}
