package dnssim

import (
	"context"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/netsim"
	"tango/internal/testbed"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:        4242,
		Response:  true,
		Questions: []Question{{Name: "www.example.scion", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "www.example.scion", Type: TypeA, Class: ClassIN, TTL: 300, A: netip.MustParseAddr("10.1.2.3")},
			{Name: "www.example.scion", Type: TypeTXT, Class: ClassIN, TTL: 300, TXT: []string{"scion=1-ff00:0:110,10.1.2.3", "v=1"}},
		},
	}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || !got.Response || len(got.Questions) != 1 || len(got.Answers) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Questions[0].Name != "www.example.scion" {
		t.Fatalf("question name %q", got.Questions[0].Name)
	}
	if got.Answers[0].A != netip.MustParseAddr("10.1.2.3") {
		t.Fatalf("A %v", got.Answers[0].A)
	}
	if len(got.Answers[1].TXT) != 2 || got.Answers[1].TXT[0] != "scion=1-ff00:0:110,10.1.2.3" {
		t.Fatalf("TXT %v", got.Answers[1].TXT)
	}
}

func TestMessageUnmarshalJunkNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = Unmarshal(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarshalRejectsBadNames(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "a..b", Type: TypeA, Class: ClassIN}}}
	if _, err := m.Marshal(); err == nil {
		t.Fatal("empty label accepted")
	}
}

func world(t *testing.T) (*netsim.SimClock, *netsim.StreamNetwork, *Zone, *Resolver) {
	t.Helper()
	clock := testbed.AutoClock(t)
	n := netsim.NewStreamNetwork(clock)
	n.SetRoute("client", "dns", netsim.RouteProps{Latency: 2 * time.Millisecond})
	zone := NewZone()
	zone.AddA("www.legacy.test", netip.MustParseAddr("192.0.2.10"), 5*time.Minute)
	zone.AddA("www.scion.test", netip.MustParseAddr("192.0.2.20"), 5*time.Minute)
	zone.AddTXT("www.scion.test", 5*time.Minute, "scion=1-ff00:0:211,10.0.0.2")
	srv, err := Serve(n, "dns:53", zone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return clock, n, zone, NewResolver(n, "client", "dns:53", clock)
}

func TestResolveA(t *testing.T) {
	_, _, _, r := world(t)
	addrs, err := r.LookupA(context.Background(), "www.legacy.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("192.0.2.10") {
		t.Fatalf("addrs %v", addrs)
	}
}

func TestResolveTXT(t *testing.T) {
	_, _, _, r := world(t)
	txts, err := r.LookupTXT(context.Background(), "www.scion.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "scion=1-ff00:0:211,10.0.0.2" {
		t.Fatalf("txts %v", txts)
	}
}

func TestResolveEmptyTypeVsNXDomain(t *testing.T) {
	_, _, _, r := world(t)
	// Name exists but has no TXT: empty answer, no error.
	txts, err := r.LookupTXT(context.Background(), "www.legacy.test")
	if err != nil {
		t.Fatalf("expected empty answer, got %v", err)
	}
	if len(txts) != 0 {
		t.Fatalf("txts %v", txts)
	}
	// Unknown name: NXDOMAIN.
	if _, err := r.LookupA(context.Background(), "nope.test"); err == nil {
		t.Fatal("NXDOMAIN not reported")
	}
}

func TestResolverCaching(t *testing.T) {
	clock, _, _, r := world(t)
	for i := 0; i < 5; i++ {
		if _, err := r.LookupA(context.Background(), "www.legacy.test"); err != nil {
			t.Fatal(err)
		}
	}
	if r.Queries != 1 {
		t.Fatalf("issued %d wire queries for 5 lookups, want 1", r.Queries)
	}
	// After TTL expiry the resolver re-queries.
	clock.Sleep(6 * time.Minute)
	if _, err := r.LookupA(context.Background(), "www.legacy.test"); err != nil {
		t.Fatal(err)
	}
	if r.Queries != 2 {
		t.Fatalf("queries after TTL = %d, want 2", r.Queries)
	}
}

func TestNegativeCaching(t *testing.T) {
	_, _, _, r := world(t)
	for i := 0; i < 3; i++ {
		if _, err := r.LookupA(context.Background(), "missing.test"); err == nil {
			t.Fatal("expected NXDOMAIN")
		}
	}
	if r.Queries != 1 {
		t.Fatalf("negative lookups issued %d wire queries, want 1", r.Queries)
	}
}

func TestResolutionLatency(t *testing.T) {
	clock, _, _, r := world(t)
	start := clock.Now()
	if _, err := r.LookupA(context.Background(), "www.legacy.test"); err != nil {
		t.Fatal(err)
	}
	// Dial (1 RTT) + query/response (1 RTT) at 2ms one-way = 8ms.
	if got := clock.Since(start); got != 8*time.Millisecond {
		t.Fatalf("resolution took %v, want 8ms", got)
	}
}

func TestZoneCaseInsensitive(t *testing.T) {
	_, _, _, r := world(t)
	addrs, err := r.LookupA(context.Background(), "WWW.Legacy.Test")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("case-insensitive lookup failed: %v %v", addrs, err)
	}
}
