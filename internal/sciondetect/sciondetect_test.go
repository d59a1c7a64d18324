package sciondetect

import (
	"bytes"
	"context"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/addr"
	"tango/internal/dnssim"
	"tango/internal/netsim"
	"tango/internal/testbed"
)

func scionAddr(s string) addr.Addr {
	a, err := addr.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func TestTXTRoundTrip(t *testing.T) {
	a := scionAddr("1-ff00:0:211,10.0.0.2")
	txt := FormatTXT(a)
	if txt != "scion=1-ff00:0:211,10.0.0.2" {
		t.Fatalf("txt %q", txt)
	}
	got, ok := ParseTXT(txt)
	if !ok || got != a {
		t.Fatalf("parse %v %v", got, ok)
	}
	for _, bad := range []string{"", "scion=", "scion=x", "v=spf1", "scion=1-ff00:0:211"} {
		if _, ok := ParseTXT(bad); ok {
			t.Errorf("ParseTXT(%q) accepted", bad)
		}
	}
}

func TestTXTPropertyRoundTrip(t *testing.T) {
	f := func(isd uint16, as uint64, ip [4]byte) bool {
		a := addr.Addr{
			IA:   addr.IA{ISD: addr.ISD(isd), AS: addr.AS(as & uint64(addr.MaxAS))},
			Host: netip.AddrFrom4(ip),
		}
		got, ok := ParseTXT(FormatTXT(a))
		return ok && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func detectorWorld(t *testing.T) (*netsim.SimClock, *Detector) {
	t.Helper()
	clock := testbed.AutoClock(t)
	n := netsim.NewStreamNetwork(clock)
	n.SetDefaultRoute(netsim.RouteProps{Latency: time.Millisecond})
	zone := dnssim.NewZone()
	zone.AddA("www.scion.test", netip.MustParseAddr("192.0.2.20"), time.Hour)
	zone.AddTXT("www.scion.test", time.Hour, "v=other", FormatTXT(scionAddr("1-ff00:0:211,10.0.0.2")))
	zone.AddA("www.legacy.test", netip.MustParseAddr("192.0.2.30"), time.Hour)
	srv, err := dnssim.Serve(n, "dns:53", zone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	res := dnssim.NewResolver(n, "client", "dns:53", clock)
	return clock, NewDetector(res, clock)
}

func TestDetectViaTXT(t *testing.T) {
	_, d := detectorWorld(t)
	a, ok := d.Detect(context.Background(), "www.scion.test")
	if !ok || a != scionAddr("1-ff00:0:211,10.0.0.2") {
		t.Fatalf("detect = %v %v", a, ok)
	}
}

func TestDetectNegative(t *testing.T) {
	_, d := detectorWorld(t)
	if _, ok := d.Detect(context.Background(), "www.legacy.test"); ok {
		t.Fatal("legacy site detected as SCION")
	}
	if _, ok := d.Detect(context.Background(), "missing.test"); ok {
		t.Fatal("missing site detected as SCION")
	}
}

func TestDetectCuratedWins(t *testing.T) {
	_, d := detectorWorld(t)
	pinned := scionAddr("1-ff00:0:110,10.9.9.9")
	d.AddCurated("www.legacy.test", pinned)
	a, ok := d.Detect(context.Background(), "WWW.LEGACY.TEST")
	if !ok || a != pinned {
		t.Fatalf("curated detect = %v %v", a, ok)
	}
}

func TestDetectCaches(t *testing.T) {
	clock, d := detectorWorld(t)
	start := clock.Now()
	d.Detect(context.Background(), "www.scion.test")
	first := clock.Since(start)
	if first == 0 {
		t.Fatal("first detection should cost DNS latency")
	}
	start = clock.Now()
	d.Detect(context.Background(), "www.scion.test")
	if clock.Since(start) != 0 {
		t.Fatal("second detection should be cached")
	}
}

func TestStrictStore(t *testing.T) {
	clock := testbed.NewClock()
	s := NewStrictStore(clock)
	if s.Active("example.test") {
		t.Fatal("empty store active")
	}
	s.Pin("Example.Test", time.Hour)
	if !s.Active("example.test") {
		t.Fatal("pin not active (case-insensitivity)")
	}
	clock.Advance(2 * time.Hour)
	if s.Active("example.test") {
		t.Fatal("expired pin still active")
	}
	if s.Len() != 0 {
		t.Fatal("expired pin not evicted on read")
	}
}

func TestStrictStoreZeroMaxAgeClears(t *testing.T) {
	clock := testbed.NewClock()
	s := NewStrictStore(clock)
	s.Pin("a.test", time.Hour)
	s.Pin("a.test", 0)
	if s.Active("a.test") {
		t.Fatal("max-age=0 did not clear pin")
	}
}

func TestStrictStorePersistence(t *testing.T) {
	clock := testbed.NewClock()
	s := NewStrictStore(clock)
	s.Pin("keep.test", time.Hour)
	s.Pin("drop.test", time.Minute)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Minute) // drop.test expires
	restored := NewStrictStore(clock)
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.Active("keep.test") {
		t.Fatal("persisted pin lost")
	}
	if restored.Active("drop.test") {
		t.Fatal("expired pin restored")
	}
	if err := restored.Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk accepted")
	}
}
