package addr

import (
	"encoding/json"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseAS(t *testing.T) {
	cases := []struct {
		in   string
		want AS
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"4294967295", asDecimalMax, true},
		{"4294967296", 0, false}, // decimal beyond 2^32-1 must use hex form
		{"ff00:0:110", 0xff00_0000_0110, true},
		{"ffff:ffff:ffff", MaxAS, true},
		{"0:0:0", 0, true},
		{"ff00:0", 0, false},
		{"ff00:0:110:0", 0, false},
		{"ff00::110", 0, false},
		{"12345:0:0", 0, false},
		{"", 0, false},
		{"-1", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAS(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseAS(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAS(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestASStringRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		as := AS(v & uint64(MaxAS))
		parsed, err := ParseAS(as.String())
		return err == nil && parsed == as
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIA(t *testing.T) {
	ia, err := ParseIA("1-ff00:0:110")
	if err != nil {
		t.Fatal(err)
	}
	if ia.ISD != 1 || ia.AS != 0xff00_0000_0110 {
		t.Fatalf("unexpected IA %+v", ia)
	}
	if got := ia.String(); got != "1-ff00:0:110" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "1", "1-", "-ff00:0:110", "70000-1", "1-xyz"} {
		if _, err := ParseIA(bad); err == nil {
			t.Errorf("ParseIA(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestIAAppendTo: AppendTo appends exactly the String form, in both AS
// notations and at the range edges.
func TestIAAppendTo(t *testing.T) {
	for _, c := range []struct {
		ia   IA
		want string
	}{
		{IA{1, 0xff00_0000_0110}, "1-ff00:0:110"},
		{IA{2, 42}, "2-42"},
		{IA{0, 0}, "0-0"},
		{IA{0, asDecimalMax}, "0-4294967295"},
		{IA{17, asDecimalMax + 1}, "17-1:0:0"},
		{IA{65535, MaxAS}, "65535-ffff:ffff:ffff"},
	} {
		if got := string(c.ia.AppendTo([]byte("x"))); got != "x"+c.want {
			t.Errorf("AppendTo(%+v) = %q, want %q", c.ia, got, "x"+c.want)
		}
		if got := c.ia.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.ia, got, c.want)
		}
	}
}

func TestIAStringRoundTrip(t *testing.T) {
	f := func(isd uint16, as uint64) bool {
		ia := IA{ISD: ISD(isd), AS: AS(as & uint64(MaxAS))}
		parsed, err := ParseIA(ia.String())
		return err == nil && parsed == ia
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIAMatches(t *testing.T) {
	concrete := MustIA(1, 0xff00_0000_0110)
	cases := []struct {
		pattern string
		want    bool
	}{
		{"1-ff00:0:110", true},
		{"1-0", true},
		{"0-ff00:0:110", true},
		{"0-0", true},
		{"2-ff00:0:110", false},
		{"1-ff00:0:111", false},
	}
	for _, c := range cases {
		p, err := ParseIA(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Matches(concrete); got != c.want {
			t.Errorf("%s.Matches(%s) = %v, want %v", p, concrete, got, c.want)
		}
	}
}

func TestIAWildcardAndZero(t *testing.T) {
	if !(IA{}).IsZero() {
		t.Error("zero IA not reported zero")
	}
	if !(IA{}).IsWildcard() {
		t.Error("zero IA not reported wildcard")
	}
	if MustIA(1, 2).IsWildcard() {
		t.Error("concrete IA reported wildcard")
	}
	if !MustIA(0, 2).IsWildcard() || !MustIA(1, 0).IsWildcard() {
		t.Error("partially wildcard IA not reported wildcard")
	}
}

func TestIAJSONMapKey(t *testing.T) {
	m := map[IA]int{MustIA(1, 0xff00_0000_0110): 7}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back map[IA]int
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[MustIA(1, 0xff00_0000_0110)] != 7 {
		t.Fatalf("round trip lost data: %s -> %v", b, back)
	}
}

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("1-ff00:0:110,10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if a.IA != MustIA(1, 0xff00_0000_0110) || a.Host != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("unexpected addr %v", a)
	}
	if got := a.String(); got != "1-ff00:0:110,10.0.0.1" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "1-ff00:0:110", "1-ff00:0:110,", "1-ff00:0:110,999.1.1.1"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestParseUDPAddr(t *testing.T) {
	a, err := ParseUDPAddr("1-ff00:0:110,10.0.0.1:443")
	if err != nil {
		t.Fatal(err)
	}
	if a.Port != 443 {
		t.Fatalf("port = %d", a.Port)
	}
	if got := a.String(); got != "1-ff00:0:110,10.0.0.1:443" {
		t.Fatalf("String() = %q", got)
	}
	v6, err := ParseUDPAddr("2-42,[::1]:8080")
	if err != nil {
		t.Fatal(err)
	}
	if got := v6.String(); got != "2-42,[::1]:8080" {
		t.Fatalf("String() = %q", got)
	}
	if v6.Network() != "scion+udp" {
		t.Fatalf("Network() = %q", v6.Network())
	}
	for _, bad := range []string{"1-ff00:0:110,10.0.0.1", "1-ff00:0:110,10.0.0.1:99999", "x"} {
		if _, err := ParseUDPAddr(bad); err == nil {
			t.Errorf("ParseUDPAddr(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestUDPAddrStringRoundTrip(t *testing.T) {
	f := func(isd uint16, as uint64, ip [4]byte, port uint16) bool {
		a := UDPAddr{
			Addr: Addr{
				IA:   IA{ISD: ISD(isd), AS: AS(as & uint64(MaxAS))},
				Host: netip.AddrFrom4(ip),
			},
			Port: port,
		}
		parsed, err := ParseUDPAddr(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
