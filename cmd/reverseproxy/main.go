// Command reverseproxy demonstrates the paper's SCION reverse proxy: an
// IP-only origin gains SCION reachability through a reverse proxy deployed
// in a nearby AS ("we have implemented a simple reverse proxy to add SCION
// support to web servers", paper §5.1).
//
// The demo has two parts. First it fetches the origin directly over the
// (slow) legacy route and over SCION via the reverse proxy, and compares.
// Then it stands up several clients at once — the load the reverse proxy
// actually exists to serve — and spreads their traffic across the peering
// links: every client's dialer shares ONE pan.Monitor (the telemetry
// plane), each rotates over the live paths with a RoundRobinSelector whose
// health feedback comes from the shared probes, and the per-path usage
// statistics plus the monitor's link congestion view show the spread.
//
//	reverseproxy -clients 3 -requests 4 -probe-budget 16 -adaptive-race
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tango/internal/experiments"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/topology"
	"tango/internal/webserver"
)

func main() {
	clients := flag.Int("clients", 3, "concurrent clients to spread across the peering links")
	requests := flag.Int("requests", 4, "page loads per client")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "shared monitor's base per-path probe interval")
	probeBudget := flag.Float64("probe-budget", 0, "global probes/sec cap across all tracked paths (0 = pan default)")
	adaptiveRace := flag.Bool("adaptive-race", false, "auto-tune each client's race width from the shared telemetry")
	passive := flag.Bool("passive", true, "stream the fleet's live-traffic RTTs into the shared monitor as zero-cost samples, suppressing active probes for origins with traffic")
	peers := flag.Bool("peers", false, "give each client its OWN monitor and gossip LinkStats snapshots between them over HTTP, instead of sharing one monitor in-process")
	gossipInterval := flag.Duration("gossip-interval", 5*time.Second, "snapshot exchange interval between peer monitors (with -peers)")
	stripeWidth := flag.Int("stripe-width", 0, "after the PLT comparison, fetch the demo's large download striped over this many link-disjoint paths through the reverse proxy (0 = skip)")
	flag.Parse()

	w, client, err := experiments.Demo(4, proxy.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building world: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()

	const page = "http://www.proxied.example/index.html"

	// Part 1: one client, SCION vs legacy.
	pl, err := client.Browser.LoadPage(context.Background(), page)
	if err != nil {
		fmt.Fprintf(os.Stderr, "SCION load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("via SCION reverse proxy: PLT %-12v indicator %s\n", pl.PLT, pl.Indicator)

	client.Browser.SetExtensionEnabled(false)
	pl2, err := client.Browser.LoadPage(context.Background(), page)
	if err != nil {
		fmt.Fprintf(os.Stderr, "IP load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("via legacy BGP/IP:       PLT %-12v indicator %s\n", pl2.PLT, pl2.Indicator)

	if pl.PLT < pl2.PLT {
		fmt.Printf("\nSCION wins by %v: path-aware forwarding routes around the slow BGP route,\n", pl2.PLT-pl.PLT)
		fmt.Println("even though the origin itself never deployed SCION (the reverse proxy did).")
	} else {
		fmt.Printf("\nlegacy IP wins by %v on this route.\n", pl.PLT-pl2.PLT)
	}

	// Optional: striped large download through the reverse proxy. Range
	// requests flow through the reverse proxy to the origin, so the striped
	// client can pull one resource as concurrent segments over disjoint paths
	// even though the origin itself never deployed SCION. Striping adds a
	// Range probe to every GET, so a second client, built to stripe, makes
	// this fetch and the page loads above stay as they were.
	if *stripeWidth > 0 {
		sc, err := w.NewClient(experiments.ClientConfig{
			IA:         topology.AS111,
			IP:         "10.0.0.9",
			LegacyName: "stripe-client",
			Proxy:      proxy.Config{Stripe: &pan.StripeOptions{Width: *stripeWidth}},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "striping client: %v\n", err)
			os.Exit(1)
		}
		defer sc.Close()
		url := fmt.Sprintf("http://www.proxied.example%s", experiments.BigResourcePath)
		fmt.Printf("\nfetching %s striped over %d paths...\n", url, *stripeWidth)
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		sc.Proxy.ServeHTTP(rec, req)
		res := rec.Result()
		n, _ := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		fmt.Printf("  status=%d via=%s bytes=%d striped=%d\n",
			res.StatusCode, res.Header.Get(proxy.HeaderVia), n,
			sc.Proxy.Stats().Snapshot().Striped)
		for dst, pipes := range sc.Proxy.StripeStatus() {
			fmt.Printf("  stripe set %s:\n", dst)
			for _, ps := range pipes {
				state := "live"
				if ps.Dead {
					state = "DEAD"
				}
				fmt.Printf("    %s  %-4s bytes=%-8d segments=%-4d cwnd=%-3d srtt=%dms\n",
					ps.Fingerprint, state, ps.Bytes, ps.Segments, ps.Cwnd, ps.SRTT.Milliseconds())
			}
		}
	}

	// Part 2: many clients, one telemetry plane — shared in-process by
	// default, or (with -peers) one monitor per client kept warm by
	// LinkStats snapshot gossip over the legacy network: the deployment
	// shape where skip proxies are separate processes on separate machines
	// that still pool what their vantage points see.
	if *peers {
		fmt.Printf("\n== spreading %d clients, one monitor EACH, gossiping snapshots every %v ==\n", *clients, *gossipInterval)
	} else {
		fmt.Printf("\n== spreading %d clients across the peering links ==\n", *clients)
	}
	var shared *pan.Monitor
	if !*peers {
		vantage := w.PANHost(topology.AS111, "10.0.9.250")
		shared = vantage.NewMonitor(pan.MonitorOptions{
			BaseInterval: *probeInterval,
			ProbeBudget:  *probeBudget,
		})
		shared.Start()
	}

	type bundle struct {
		c   *experiments.Client
		rr  *pan.RoundRobinSelector
		mon *pan.Monitor
		g   *webserver.Gossiper
	}
	peerURL := func(i int) string { return fmt.Sprintf("rp-peer-%d:8600", i+1) }
	fleet := make([]bundle, 0, *clients)
	for i := 0; i < *clients; i++ {
		monitor := shared
		if *peers {
			host := w.PANHost(topology.AS111, fmt.Sprintf("10.0.9.%d", 230+i))
			monitor = host.NewMonitor(pan.MonitorOptions{
				BaseInterval: *probeInterval,
				ProbeBudget:  *probeBudget,
			})
			monitor.Start()
			if _, err := webserver.ServeIP(w.Legacy, peerURL(i), webserver.SnapshotHandler(monitor)); err != nil {
				fmt.Fprintf(os.Stderr, "peer %d snapshot server: %v\n", i+1, err)
				os.Exit(1)
			}
		}
		c, err := w.NewClient(experiments.ClientConfig{
			IA:         topology.AS111,
			IP:         fmt.Sprintf("10.0.7.%d", i+1),
			LegacyName: fmt.Sprintf("rp-client-%d", i+1),
			Proxy: proxy.Config{
				Monitor:      monitor, // shared, or this client's own gossiped one
				RaceWidth:    3,
				AdaptiveRace: *adaptiveRace,
				Passive:      *passive,
			},
			Seed: int64(i + 1),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "client %d: %v\n", i+1, err)
			os.Exit(1)
		}
		defer c.Proxy.Close()
		// Rotation over a hotspot-aware base ranking: the shared probes
		// feed health and latency; served requests advance the rotation.
		rr := pan.NewRoundRobinSelector(pan.NewHotspotSelector(monitor))
		c.Extension.SetSelector(rr)
		fleet = append(fleet, bundle{c: c, rr: rr, mon: monitor})
	}
	if *peers {
		// Full-mesh gossip: every client pulls every other peer's snapshot.
		for i := range fleet {
			var others []string
			for j := range fleet {
				if j != i {
					others = append(others, peerURL(j))
				}
			}
			httpClient := &http.Client{Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
					return w.Legacy.Dial(ctx, fmt.Sprintf("rp-client-%d", i+1), hostport)
				},
				DisableCompression: true,
			}}
			g := webserver.NewGossiper(w.Clock, fleet[i].mon, httpClient, others, *gossipInterval, 1)
			g.Start()
			fleet[i].g = g
		}
	}

	for r := 0; r < *requests; r++ {
		for i, b := range fleet {
			if r > 0 {
				// Rotation advances per dialed connection; drop the pooled
				// connection so every load dials afresh and the spread is
				// visible in the path-usage statistics.
				b.c.Proxy.Dialer().Invalidate()
			}
			if _, err := b.c.Browser.LoadPage(context.Background(), page); err != nil {
				fmt.Fprintf(os.Stderr, "client %d load %d: %v\n", i+1, r+1, err)
			}
		}
	}
	// Give the schedules a couple of jittered probe rounds (and, with
	// -peers, at least one gossip exchange).
	settle := 2 * *probeInterval
	if *peers && settle < 2**gossipInterval {
		settle = 2 * *gossipInterval
	}
	w.Clock.Sleep(settle)

	if shared != nil {
		fmt.Printf("telemetry plane: %d destinations, %d paths tracked for %d dialers\n",
			shared.TargetCount(), shared.TrackedPaths(), len(fleet))
	}
	fmt.Println("per-client path usage (RoundRobinSelector statistics, the feedback signal):")
	for i, b := range fleet {
		snap := b.c.Proxy.Stats().Snapshot()
		fmt.Printf("  client %d:\n", i+1)
		for _, u := range snap.Paths {
			fmt.Printf("    %s  requests=%d\n", u.Fingerprint, u.Requests)
		}
		if *adaptiveRace {
			dec := b.c.Proxy.Dialer().LastRace()
			fmt.Printf("    last race decision: width=%d (%s)\n", dec.Width, dec.Reason)
		}
		for host, split := range snap.Samples {
			fmt.Printf("    %s: %d passive / %d probe samples\n", host, split.Passive, split.Probes)
		}
		if b.g != nil {
			rounds, applied, lastErr := b.g.Stats()
			fmt.Printf("    gossip: %d rounds, %d estimates imported (last error: %v)\n", rounds, applied, lastErr)
			fmt.Printf("    own monitor: %d destinations, %d link estimates\n",
				b.mon.TargetCount(), len(b.mon.LinkStats()))
		}
	}
	var links []pan.LinkStat
	if shared != nil {
		links = shared.LinkStats()
	} else if len(fleet) > 0 {
		links = fleet[0].mon.LinkStats()
	}
	if len(links) > 0 {
		fmt.Println("link congestion estimates (shared telemetry, min-across-paths attribution):")
		for _, l := range links {
			fmt.Printf("  %s <-> %s  excess=%-6s dev=%-6s sharers=%d\n",
				l.A, l.B, l.Congestion.Round(time.Millisecond), l.Dev.Round(time.Millisecond), l.Sharers)
		}
	}
	for _, b := range fleet {
		if b.g != nil {
			b.g.Stop()
		}
		if b.mon != nil && b.mon != shared {
			b.mon.Stop()
		}
	}
	if shared != nil {
		shared.Stop()
	}
}
