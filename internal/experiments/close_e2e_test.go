package experiments

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/segment"
	"tango/internal/topology"
)

// TestProxyCloseReleasesMonitor: closing a proxy takes everything it put on
// its telemetry plane back off. A shared monitor ends up tracking nothing
// and ingesting no more samples from the closed proxy's connections, and it
// keeps running for its other users. A monitor the proxy built itself
// (ProbeInterval) is stopped.
func TestProxyCloseReleasesMonitor(t *testing.T) {
	const interval = time.Second
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 80}
	const origin = "abroad.example"

	// closeAfterLoad loads one page from the origin through a client built
	// with pc, closes the client and returns its monitor.
	closeAfterLoad := func(t *testing.T, world *World, pc proxy.Config) *pan.Monitor {
		t.Helper()
		pc.Passive = true
		c, err := world.NewClient(ClientConfig{IA: topology.AS111, IP: "10.0.0.1", LegacyName: "client", Proxy: pc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := c.Proxy.Monitor()
		if _, err := c.Browser.LoadPage(context.Background(), "http://abroad.example/index.html"); err != nil {
			t.Fatal(err)
		}
		if m.TrackedPaths() == 0 || m.IngestStats().Enqueued == 0 {
			t.Fatalf("the load left no trace on the monitor: %d tracked paths, %+v", m.TrackedPaths(), m.IngestStats())
		}
		c.Close()
		if n := m.TrackedPaths(); n != 0 {
			t.Errorf("monitor still tracks %d paths after Proxy.Close", n)
		}
		before := m.IngestStats().Enqueued
		world.Clock.Sleep(interval)
		if after := m.IngestStats().Enqueued; after != before {
			t.Errorf("monitor ingested %d samples in the second after Proxy.Close", after-before)
		}
		return m
	}
	newWorld := func(t *testing.T) *World {
		t.Helper()
		w, err := NewWorld(5, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		w.Legacy.SetDefaultRoute(netsimRoute(0))
		site := webserverSite(t)
		if err := w.scionServer(topology.AS211, "10.0.0.2", site, 0, origin); err != nil {
			t.Fatal(err)
		}
		if _, err := serveIP(w, "198.51.100.99:80", site); err != nil {
			t.Fatal(err)
		}
		addAZone(w, origin, "198.51.100.99")
		return w
	}

	t.Run("shared", func(t *testing.T) {
		w := newWorld(t)
		vantage := w.PANHost(topology.AS111, "10.0.9.250")
		realProbe := vantage.HandshakeProbe()
		var probes atomic.Int64
		shared := pan.NewMonitor(w.Clock, vantage.Paths, pan.MonitorOptions{
			BaseInterval: interval,
			Probe: func(r addr.UDPAddr, name string, p *segment.Path, timeout time.Duration) (time.Duration, error) {
				probes.Add(1)
				return realProbe(r, name, p, timeout)
			},
		})
		shared.Start()
		t.Cleanup(shared.Stop)
		closeAfterLoad(t, w, proxy.Config{Monitor: shared})

		// Another user of the monitor still gets probes.
		before := probes.Load()
		shared.Track(remote, origin)
		defer shared.Untrack(remote, origin)
		w.Clock.Sleep(2 * interval)
		if probes.Load() == before {
			t.Error("Proxy.Close stopped a shared monitor")
		}
	})

	t.Run("owned", func(t *testing.T) {
		w := newWorld(t)
		m := closeAfterLoad(t, w, proxy.Config{ProbeInterval: interval})
		m.Track(remote, origin)
		defer m.Untrack(remote, origin)
		before, _ := m.TargetSamples(remote, origin)
		w.Clock.Sleep(2 * interval)
		if after, _ := m.TargetSamples(remote, origin); after.Probes != before.Probes {
			t.Errorf("owned monitor sent %d probes after Proxy.Close", after.Probes-before.Probes)
		}
	})
}
