// Command skipproxy demonstrates the SKIP HTTP proxy daemon (paper Figure
// 1) in the demo world: it accepts a user policy, proxies a series of
// requests through the IP/SCION switch, and prints the per-path statistics
// feedback the paper describes.
//
//	skipproxy -policy policy.json -requests 12
//
// The policy file is a PPL JSON document, e.g.
//
//	{"name":"green-geofence","acl":["- 2","+"],"ordering":["carbon","latency"]}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"slices"
	"time"

	"tango/internal/addr"
	"tango/internal/experiments"
	"tango/internal/pan"
	"tango/internal/ppl"
	"tango/internal/proxy"
	"tango/internal/segment"
	"tango/internal/topology"
	"tango/internal/webserver"
)

func main() {
	policyFile := flag.String("policy", "", "PPL policy JSON file")
	selector := flag.String("selector", "", "path-selection strategy: latency, roundrobin, or hotspot (default: policy-driven)")
	requests := flag.Int("requests", 6, "requests to send through the proxy per origin")
	raceWidth := flag.Int("race-width", 0, "dial this many top-ranked paths concurrently per connection (0/1 = sequential failover)")
	probeInterval := flag.Duration("probe-interval", 0, "base per-path RTT probe interval of the telemetry monitor (0 = probing off)")
	probeBudget := flag.Float64("probe-budget", 0, "global probes/sec cap across all tracked paths (0 = pan default)")
	adaptiveRace := flag.Bool("adaptive-race", false, "auto-tune the race width from telemetry freshness and RTT spread (needs -probe-interval)")
	passive := flag.Bool("passive", true, "feed live-traffic RTTs (connection acks, request first-byte times) into the telemetry monitor as zero-cost samples, suppressing active probes for busy origins (needs -probe-interval)")
	peers := flag.Int("peers", 0, "after the run, boot this many COLD peer proxies that import the warm proxy's LinkStats snapshot over HTTP gossip and dial adaptively from it (needs -probe-interval)")
	gossipInterval := flag.Duration("gossip-interval", 5*time.Second, "gossip exchange interval for -peers")
	stripeWidth := flag.Int("stripe-width", 0, "fetch large responses as concurrent byte-range segments over this many link-disjoint paths (0 = striping off)")
	stripeSegment := flag.Int("stripe-segment", 0, "stripe segment size in bytes (0 = pan default)")
	stripeMin := flag.Int64("stripe-min", 0, "minimum response size in bytes before striping kicks in (0 = pan default)")
	flag.Parse()

	if *policyFile != "" && *selector != "" {
		fmt.Fprintln(os.Stderr, "-policy and -selector are mutually exclusive (a selector replaces the policy composition)")
		os.Exit(1)
	}
	if *peers > 0 && *probeInterval <= 0 {
		fmt.Fprintln(os.Stderr, "-peers needs -probe-interval (a warm monitor to gossip from)")
		os.Exit(1)
	}
	if *selector == "hotspot" && *probeInterval <= 0 {
		fmt.Fprintln(os.Stderr, "-selector hotspot needs -probe-interval (link telemetry comes from the monitor)")
		os.Exit(1)
	}
	if *adaptiveRace && *probeInterval <= 0 {
		fmt.Fprintln(os.Stderr, "-adaptive-race needs -probe-interval (width decisions come from telemetry)")
		os.Exit(1)
	}

	pc := proxy.Config{
		RaceWidth:     *raceWidth,
		ProbeInterval: *probeInterval,
		ProbeBudget:   *probeBudget,
		AdaptiveRace:  *adaptiveRace,
		Passive:       *passive,
	}
	if *stripeWidth > 0 {
		pc.Stripe = &pan.StripeOptions{Width: *stripeWidth, SegmentSize: *stripeSegment, MinStripeBytes: *stripeMin}
	}
	w, client, err := experiments.Demo(2, pc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "building world: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()

	if *policyFile != "" {
		raw, err := os.ReadFile(*policyFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading policy: %v\n", err)
			os.Exit(1)
		}
		var pol ppl.Policy
		if err := json.Unmarshal(raw, &pol); err != nil {
			fmt.Fprintf(os.Stderr, "parsing policy: %v\n", err)
			os.Exit(1)
		}
		client.Extension.SetPolicy(&pol)
		fmt.Printf("installed policy %q\n", pol.Name)
	}
	if *probeInterval > 0 {
		if *probeBudget > 0 {
			fmt.Printf("telemetry monitor: base interval %v, budget %.1f probes/s\n", *probeInterval, *probeBudget)
		} else {
			fmt.Printf("telemetry monitor: base interval %v\n", *probeInterval)
		}
		if *passive {
			fmt.Println("passive telemetry: live-traffic RTTs suppress active probes for busy origins")
		}
	}
	switch *selector {
	case "":
	case "latency":
		client.Extension.SetSelector(pan.NewLatencySelector())
		fmt.Println("installed latency selector")
	case "roundrobin":
		client.Extension.SetSelector(pan.NewRoundRobinSelector(nil))
		fmt.Println("installed round-robin selector")
	case "hotspot":
		client.Extension.SetSelector(pan.NewHotspotSelector(client.Proxy.Monitor()))
		fmt.Println("installed hotspot-aware selector (latency + shared-link variance penalty)")
	default:
		fmt.Fprintf(os.Stderr, "unknown selector %q (want latency, roundrobin, or hotspot)\n", *selector)
		os.Exit(1)
	}

	if *raceWidth > 1 {
		fmt.Printf("racing the top %d ranked paths per connection\n", *raceWidth)
	}
	if *adaptiveRace {
		fmt.Println("adaptive racing: width tuned per dial from telemetry freshness and RTT spread")
	}

	if *stripeWidth > 0 {
		fmt.Printf("striping large responses over up to %d link-disjoint paths\n", *stripeWidth)
	}

	origins := []string{"www.scion.example", "www.legacy.example", "www.proxied.example"}
	for _, origin := range origins {
		avail, compliant := client.Proxy.CheckSCION(context.Background(), origin)
		fmt.Printf("%-22s scion-available=%-5v policy-compliant=%v\n", origin, avail, compliant)
	}

	fmt.Printf("\nsending %d requests per origin through the proxy...\n", *requests)
	for _, origin := range origins {
		for i := 0; i < *requests; i++ {
			if *selector == "roundrobin" && i > 0 {
				// Rotation advances per dialed connection; drop the pooled
				// connections so each page load dials afresh and the
				// rotation is visible in the path-usage statistics.
				client.Proxy.Dialer().Invalidate()
			}
			pl, err := client.Browser.LoadPage(context.Background(), fmt.Sprintf("http://%s/index.html", origin))
			if err != nil {
				fmt.Fprintf(os.Stderr, "load %s: %v\n", origin, err)
				continue
			}
			if i == 0 {
				fmt.Printf("  %-22s PLT %-10v indicator %s\n", origin, pl.PLT, pl.Indicator)
			}
		}
	}

	if *stripeWidth > 0 {
		url := fmt.Sprintf("http://www.scion.example%s", experiments.BigResourcePath)
		fmt.Printf("\nfetching %s striped through the proxy...\n", url)
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		start := w.Clock.Now()
		client.Proxy.ServeHTTP(rec, req)
		res := rec.Result()
		n, _ := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		fmt.Printf("  status=%d via=%s bytes=%d wall=%v\n",
			res.StatusCode, res.Header.Get(proxy.HeaderVia), n, w.Clock.Since(start).Round(time.Millisecond))
		status := client.Proxy.StripeStatus()
		for _, dst := range slices.Sorted(maps.Keys(status)) {
			fmt.Printf("  stripe set %s:\n", dst)
			for _, ps := range status[dst] {
				state := "live"
				if ps.Dead {
					state = "DEAD"
				}
				fmt.Printf("    %s  %-4s bytes=%-8d segments=%-4d losses=%-3d cwnd=%-3d srtt=%dms\n",
					ps.Fingerprint, state, ps.Bytes, ps.Segments, ps.Losses, ps.Cwnd, ps.SRTT.Milliseconds())
			}
		}
	}

	snap := client.Proxy.Stats().Snapshot()
	fmt.Printf("\n== proxy statistics (feedback to the user, paper §4) ==\n")
	fmt.Printf("requests by transport: %v\n", snap.ByVia)
	if snap.Striped > 0 {
		fmt.Printf("striped responses: %d\n", snap.Striped)
	}
	for _, host := range slices.Sorted(maps.Keys(snap.ByHost)) {
		fmt.Printf("  %-22s %v\n", host, snap.ByHost[host])
	}
	fmt.Println("path usage:")
	for _, p := range snap.Paths {
		avg := int64(0)
		if p.Requests > 0 {
			avg = p.TotalTime.Milliseconds() / int64(p.Requests)
		}
		fmt.Printf("  %s  requests=%-4d bytes=%-8d avg=%dms compliant=%v\n",
			p.Fingerprint, p.Requests, p.Bytes, avg, p.Compliant)
	}
	if len(snap.Health) > 0 {
		fmt.Println("path liveness (selector telemetry: dial outcomes + probes):")
		for _, h := range snap.Health {
			state := "live"
			if h.Down {
				state = "DOWN"
			}
			rtt := "rtt=?"
			if h.RTT > 0 {
				rtt = fmt.Sprintf("rtt=%dms", h.RTT.Milliseconds())
			}
			fmt.Printf("  %s  %-4s %s\n", h.Fingerprint, state, rtt)
		}
	}
	if len(snap.Links) > 0 {
		fmt.Println("link congestion (monitor decomposition of path probes):")
		for _, l := range snap.Links {
			fmt.Printf("  %s <-> %s  excess=%-6s dev=%-6s sharers=%d\n",
				l.A, l.B, l.Congestion.Round(time.Millisecond), l.Dev.Round(time.Millisecond), l.Sharers)
		}
	}
	if len(snap.Samples) > 0 {
		fmt.Println("telemetry sample split (passive = free, probes = budget):")
		for _, host := range slices.Sorted(maps.Keys(snap.Samples)) {
			split := snap.Samples[host]
			fmt.Printf("  %-22s %d passive / %d probe samples\n", host, split.Passive, split.Probes)
		}
	}
	if *adaptiveRace {
		dec := client.Proxy.Dialer().LastRace()
		fmt.Printf("last race decision: width=%d (%s)\n", dec.Width, dec.Reason)
	}

	if *peers > 0 {
		gossipColdPeers(w, client.Proxy.Monitor(), *peers, *probeInterval, *gossipInterval)
	}
}

// gossipColdPeers demonstrates LinkStats snapshot gossip: the warm proxy's
// monitor serves its snapshot over the legacy network, and freshly booted
// peer proxies import it — warm hotspot estimates before their first dial,
// so the first adaptive dial goes out narrow with zero probes spent.
func gossipColdPeers(w *experiments.World, warm *pan.Monitor, peers int, probeInterval, gossipInterval time.Duration) {
	fmt.Printf("\n== link-state gossip: %d cold peers warm-starting from this proxy ==\n", peers)
	if _, err := webserver.ServeIP(w.Legacy, "telemetry.skip:8600", webserver.SnapshotHandler(warm)); err != nil {
		fmt.Fprintf(os.Stderr, "serving snapshot: %v\n", err)
		os.Exit(1)
	}
	snap := warm.ExportLinks()
	fmt.Printf("snapshot on telemetry.skip:8600: %d path + %d link estimates\n", len(snap.Paths), len(snap.Links))
	// The SCION-native demo origin the warm proxy has been measuring.
	scionRemote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 80}
	for i := 0; i < peers; i++ {
		host := w.PANHost(topology.AS111, fmt.Sprintf("10.0.9.%d", 10+i))
		probes := 0
		real := host.HandshakeProbe()
		mon := pan.NewMonitor(w.Clock, host.Paths, pan.MonitorOptions{
			BaseInterval: probeInterval,
			Probe: func(remote addr.UDPAddr, serverName string, path *segment.Path, timeout time.Duration) (time.Duration, error) {
				probes++
				return real(remote, serverName, path, timeout)
			},
		})
		httpClient := &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
				return w.Legacy.Dial(ctx, fmt.Sprintf("skip-peer-%d", i+1), hostport)
			},
			DisableCompression: true,
		}}
		g := webserver.NewGossiper(w.Clock, mon, httpClient, []string{"telemetry.skip:8600"}, gossipInterval, 1)
		applied, err := g.RunOnce(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "peer %d gossip: %v\n", i+1, err)
			continue
		}
		d := host.NewDialer(pan.DialOptions{
			Selector:     pan.NewLatencySelector(),
			ServerName:   "www.scion.example",
			Timeout:      2 * time.Second,
			RaceWidth:    3,
			AdaptiveRace: true,
			Monitor:      mon,
		})
		if _, sel, err := d.Dial(context.Background(), scionRemote, ""); err != nil {
			fmt.Fprintf(os.Stderr, "peer %d dial: %v\n", i+1, err)
		} else {
			dec := d.LastRace()
			fmt.Printf("  peer %d: imported %d estimates, first dial width=%d (%s) over %s, %d local probes spent\n",
				i+1, applied, dec.Width, dec.Reason, sel.Path.Fingerprint(), probes)
		}
		d.Close()
	}
}
