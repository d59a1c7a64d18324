package experiments

import (
	"context"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/segment"
	"tango/internal/squic"
	"tango/internal/topology"
)

// pathUsesLink reports whether p traverses the direct link between a and b.
func pathUsesLink(p *segment.Path, a, b addr.IA) bool {
	for i := 1; i < len(p.Hops); i++ {
		x, y := p.Hops[i-1].IA, p.Hops[i].IA
		if (x == a && y == b) || (x == b && y == a) {
			return true
		}
	}
	return false
}

// fastestPath returns the lowest-metadata-latency path satisfying keep.
func fastestPath(paths []*segment.Path, keep func(*segment.Path) bool) *segment.Path {
	var best *segment.Path
	for _, p := range paths {
		if keep != nil && !keep(p) {
			continue
		}
		if best == nil || p.Meta.Latency < best.Meta.Latency {
			best = p
		}
	}
	return best
}

// echoListener serves one echoing squic server on the host.
func echoListener(t *testing.T, host *pan.Host, port uint16, name string, pool *squic.CertPool) *squic.Listener {
	t.Helper()
	id, err := squic.NewIdentity(name)
	if err != nil {
		t.Fatal(err)
	}
	pool.AddIdentity(id)
	lis, err := host.Listen(port, id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					s, err := conn.AcceptStream()
					if err != nil {
						return
					}
					go func() {
						io.Copy(s, s)
						s.Close()
					}()
				}
			}()
		}
	}()
	return lis
}

// echoRoundTrip verifies the connection carries traffic end to end.
func echoRoundTrip(t *testing.T, conn *squic.Conn) {
	t.Helper()
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("raced")
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != string(msg) {
		t.Fatalf("echo = %q, %v", got, err)
	}
	s.Close()
}

// healthOf scans a selector's exported telemetry for one fingerprint.
func healthOf(ls *pan.LatencySelector, fp string) (pan.PathHealth, bool) {
	for _, h := range ls.PathHealth() {
		if h.Fingerprint == fp {
			return h, true
		}
	}
	return pan.PathHealth{}, false
}

// TestProxyProbingSurfacesHealthStats drives the full browser → extension
// → proxy pipeline with racing and probing enabled via ClientConfig and
// asserts the liveness telemetry comes out the stats API — the paper §4.2
// "path-health sharing" surface the UI renders.
func TestProxyProbingSurfacesHealthStats(t *testing.T) {
	w, err := NewWorld(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	w.Legacy.SetDefaultRoute(netsimRoute(0))
	site := webserverSite(t)
	if err := w.scionServer(topology.AS211, "10.0.0.2", site, 0, "abroad.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := serveIP(w, "198.51.100.99:80", site); err != nil {
		t.Fatal(err)
	}
	addAZone(w, "abroad.example", "198.51.100.99")

	c, err := w.NewClient(ClientConfig{
		IA: topology.AS111, IP: "10.0.0.1", LegacyName: "client",
		Proxy: proxy.Config{RaceWidth: 2, ProbeInterval: 2 * time.Second},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Proxy.Close)
	c.Extension.SetSelector(pan.NewLatencySelector())

	pl, err := c.Browser.LoadPage(context.Background(), "http://abroad.example/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Indicator.String() != "all-scion" {
		t.Fatalf("indicator = %v", pl.Indicator)
	}
	// The first SCION dial tracked the origin; one probe interval later
	// every path to it has a live RTT in the stats snapshot.
	w.Clock.Sleep(3 * time.Second)
	snap := c.Proxy.Stats().Snapshot()
	paths := w.PANHost(topology.AS111, "10.0.9.9").Paths(topology.AS211)
	if len(snap.Health) < len(paths) {
		t.Fatalf("stats health has %d entries, want ≥ %d (all paths probed): %+v",
			len(snap.Health), len(paths), snap.Health)
	}
	for _, h := range snap.Health {
		if h.Down {
			t.Fatalf("healthy world reports a down path: %+v", h)
		}
		if h.RTT <= 0 {
			t.Fatalf("probed path without live RTT: %+v", h)
		}
	}
	// The proxy's live feed matches the snapshot (what the UI renders).
	if got := c.Proxy.PathHealth(); len(got) != len(snap.Health) {
		t.Fatalf("proxy health = %d entries, stats = %d", len(got), len(snap.Health))
	}
}

// TestRacingAndProbingE2E is the deterministic netsim scenario of the
// racing/probing stack: multiple inter-ISD paths with asymmetric latency
// (and a lossy laggard), all on the virtual clock.
//
//  1. A raced dial (width 3, staggered) wins on the fastest live path.
//  2. Loser cleanup: once the canceled racers' abandoned handshakes are
//     reaped, the server tracks exactly the one pooled connection.
//  3. Killing the winning path mid-run is detected by the background
//     monitor within one probe interval (+ probe timeout), and the next
//     dial fails over to the fastest path still alive.
//  4. Nothing leaks: goroutines return to baseline after teardown.
func TestRacingAndProbingE2E(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	w, err := NewWorld(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Asymmetric conditions: the slow geodesic core link is lossy too, so
	// the path set offers fast-clean, mid-clean, and slow-lossy choices.
	slow := w.DW.Link(topology.Core110, topology.Core210)
	if slow == nil {
		t.Fatal("default topology must have a 110-210 core link")
	}
	props := slow.Props()
	props.LossRate = 0.15
	slow.SetProps(props)

	server := w.PANHost(topology.AS211, "10.0.0.77")
	lis := echoListener(t, server, 7300, "race.e2e", w.Pool)
	client := w.PANHost(topology.AS111, "10.0.8.31")
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.77")}, Port: 7300}

	paths := client.Paths(topology.AS211)
	if len(paths) < 3 {
		t.Fatalf("scenario needs ≥3 paths, topology offers %d", len(paths))
	}
	fastest := fastestPath(paths, nil)
	if !pathUsesLink(fastest, topology.Core120, topology.Core210) {
		t.Fatalf("expected the fastest path to cross 120-210: %s", fastest)
	}

	ls := pan.NewLatencySelector()
	d := client.NewDialer(pan.DialOptions{
		Selector:    ls,
		ServerName:  "race.e2e",
		Timeout:     2 * time.Second,
		RaceWidth:   3,
		RaceStagger: 20 * time.Millisecond,
	})

	// 1. The raced winner is the fastest live path.
	conn, sel, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatalf("raced dial: %v", err)
	}
	if sel.Path.Fingerprint() != fastest.Fingerprint() {
		t.Fatalf("raced winner %s (%v), want fastest %s (%v)",
			sel.Path, sel.Path.Meta.Latency, fastest, fastest.Meta.Latency)
	}
	echoRoundTrip(t, conn)
	// The winner's handshake latency fed the selector as a live sample.
	if h, ok := healthOf(ls, fastest.Fingerprint()); !ok || h.RTT <= 0 {
		t.Fatalf("winner's live RTT sample missing: %+v", ls.PathHealth())
	}

	// The background telemetry monitor keeps every path's RTT fresh between
	// dials. MaxInterval is pinned to the base so churn adaptation cannot
	// stretch a stable path's schedule beyond the detection budget below.
	monitor := client.NewMonitor(pan.MonitorOptions{
		BaseInterval: 4 * time.Second,
		MaxInterval:  4 * time.Second,
		Timeout:      time.Second,
	})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "race.e2e")
	monitor.Start()
	w.Clock.Sleep(5 * time.Second)
	for _, p := range paths {
		if pathUsesLink(p, topology.Core110, topology.Core210) {
			continue // the lossy laggard's probe may legitimately time out
		}
		if h, ok := healthOf(ls, p.Fingerprint()); !ok || h.Down || h.RTT <= 0 {
			t.Fatalf("path %s has no live RTT after a probe round: %+v", p, ls.PathHealth())
		}
	}

	// 2. Loser cleanup: canceled racers' abandoned server-side handshakes
	// are reaped by the confirm timeout; only the pooled winner remains.
	w.Clock.Sleep(7 * time.Second) // past the server's 10s confirm timeout
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	deadline := time.Now().Add(10 * time.Second)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	for lis.ConnCount() > 1 && time.Now().Before(deadline) {
		w.Clock.Sleep(500 * time.Millisecond)
	}
	if n := lis.ConnCount(); n != 1 {
		t.Fatalf("server tracks %d conns, want only the pooled winner", n)
	}

	// 3. Kill the winning path's distinguishing link mid-run: the monitor
	// must mark it down within one (jittered: ≤1.15×) probe interval plus
	// the probe timeout, and the next dial must fail over to the fastest
	// live path.
	dead := w.DW.Link(topology.Core120, topology.Core210)
	dprops := dead.Props()
	dprops.LossRate = 1
	dead.SetProps(dprops)
	killedAt := w.Clock.Now()
	const detectionBudget = 4*time.Second*115/100 + time.Second + 500*time.Millisecond
	for {
		if h, ok := healthOf(ls, fastest.Fingerprint()); ok && h.Down {
			break
		}
		if w.Clock.Since(killedAt) > detectionBudget {
			t.Fatalf("path kill not detected within interval+timeout: %+v", ls.PathHealth())
		}
		w.Clock.Sleep(250 * time.Millisecond)
	}
	if took := w.Clock.Since(killedAt); took > detectionBudget {
		t.Fatalf("kill detection took %v, budget %v", took, detectionBudget)
	}

	liveFastest := fastestPath(paths, func(p *segment.Path) bool {
		return !pathUsesLink(p, topology.Core120, topology.Core210)
	})
	if liveFastest == nil {
		t.Fatal("no live path left — topology assumption broken")
	}
	d.Invalidate() // drop the pooled conn stranded on the dead path
	conn2, sel2, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatalf("failover dial: %v", err)
	}
	if sel2.Path.Fingerprint() == fastest.Fingerprint() {
		t.Fatal("failover dial picked the dead path")
	}
	if sel2.Path.Fingerprint() != liveFastest.Fingerprint() {
		t.Fatalf("failover winner %s (%v), want fastest live %s (%v)",
			sel2.Path, sel2.Path.Meta.Latency, liveFastest, liveFastest.Meta.Latency)
	}
	echoRoundTrip(t, conn2)

	// 4. Teardown leaves nothing behind: let any in-flight probe resolve
	// while the clock still advances, then close everything.
	monitor.Stop()
	w.Clock.Sleep(2 * time.Second)
	d.Close()
	if conn2.Err() == nil {
		t.Fatal("Dialer.Close must close pooled connections")
	}
	lis.Close()
	w.Close()

	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	deadline = time.Now().Add(10 * time.Second)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s",
			goroutinesBefore, g, buf[:runtime.Stack(buf, true)])
	}
}
