package webserver_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// gossipPath builds a distinct fake path AS111 → AS211 for monitor tests
// that need no dataplane.
func gossipPath(i int) *segment.Path {
	return &segment.Path{
		Src: topology.AS111,
		Dst: topology.AS211,
		Hops: []segment.Hop{
			{IA: topology.AS111, Egress: addr.IfID(10 + i)},
			{IA: topology.Core110, Ingress: addr.IfID(20 + i), Egress: addr.IfID(30 + i)},
			{IA: topology.AS211, Ingress: addr.IfID(40 + i)},
		},
		Meta: segment.Metadata{Latency: time.Duration(10+i) * time.Millisecond},
	}
}

// TestGossipExchange drives the full snapshot loop over the simulated legacy
// network: a warm host serves its snapshot via SnapshotHandler, a cold
// host's Gossiper pulls it, and the cold monitor comes up with the warm
// telemetry — while a malformed peer in the same round errors without
// poisoning the import.
func TestGossipExchange(t *testing.T) {
	clock := testbed.AutoClock(t)
	legacy := netsim.NewStreamNetwork(clock)
	legacy.SetDefaultRoute(netsim.RouteProps{Latency: time.Millisecond})

	paths := []*segment.Path{gossipPath(0), gossipPath(1)}
	pathsFn := func(addr.IA) []*segment.Path { return paths }
	target := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}

	warm := pan.NewMonitor(clock, pathsFn, pan.MonitorOptions{BaseInterval: time.Second})
	warm.Track(target, "gossip.server")
	for i := 0; i < 3; i++ {
		warm.Observe(paths[0], 40*time.Millisecond)
		warm.Observe(paths[1], 90*time.Millisecond)
	}
	if _, err := webserver.ServeIP(legacy, "peer-warm:8600", webserver.SnapshotHandler(warm)); err != nil {
		t.Fatal(err)
	}
	// A peer speaking a future snapshot version: fetched fine, rejected at
	// import, and must not block the round.
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(pan.LinkSnapshot{Version: 99})
	})
	if _, err := webserver.ServeIP(legacy, "peer-bad:8600", bad); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
			return legacy.Dial(ctx, "peer-cold", hostport)
		},
		DisableCompression: true,
	}}
	cold := pan.NewMonitor(clock, pathsFn, pan.MonitorOptions{BaseInterval: time.Second})
	g := webserver.NewGossiper(clock, cold, client, []string{"peer-bad:8600", "peer-warm:8600"}, 2*time.Second, 1)

	applied, err := g.RunOnce(context.Background())
	if err == nil {
		t.Fatal("round with a bad-version peer reported no error")
	}
	if applied == 0 {
		t.Fatalf("good peer's snapshot not applied (err %v)", err)
	}
	tel, ok := cold.Telemetry(paths[0].Fingerprint())
	if !ok || !tel.Imported || tel.RTT != 40*time.Millisecond {
		t.Fatalf("cold telemetry after gossip = %+v (ok=%v), want imported 40ms", tel, ok)
	}

	// The periodic loop keeps exchanging on the virtual clock.
	g.Start()
	t.Cleanup(g.Stop)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	deadline := time.Now().Add(5 * time.Second)
	for {
		rounds, _, _ := g.Stats()
		if rounds >= 3 {
			break
		}
		//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
		if time.Now().After(deadline) {
			t.Fatalf("gossip loop stalled at %d rounds", rounds)
		}
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
	}
}

// TestFetchSnapshotURLForms: bare host:port, base URL, and full snapshot URL
// all resolve to the well-known path.
func TestFetchSnapshotURLForms(t *testing.T) {
	clock := testbed.AutoClock(t)
	legacy := netsim.NewStreamNetwork(clock)
	legacy.SetDefaultRoute(netsim.RouteProps{Latency: 0})

	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return nil }, pan.MonitorOptions{})
	mux := http.NewServeMux()
	mux.Handle(webserver.LinkSnapshotPath, webserver.SnapshotHandler(m))
	if _, err := webserver.ServeIP(legacy, "peer:8600", mux); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
			return legacy.Dial(ctx, "asker", hostport)
		},
		DisableCompression: true,
	}}
	for _, peer := range []string{"peer:8600", "http://peer:8600", "http://peer:8600" + webserver.LinkSnapshotPath} {
		snap, err := webserver.FetchSnapshot(context.Background(), client, peer)
		if err != nil {
			t.Fatalf("fetch %q: %v", peer, err)
		}
		if snap.Version != pan.LinkSnapshotVersion {
			t.Fatalf("fetch %q: version %d", peer, snap.Version)
		}
	}
}
