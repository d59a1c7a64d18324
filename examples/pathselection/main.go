// Pathselection: enumerate the decorated path choices SCION offers between
// two ASes and apply the property policies of the paper's Table 1 — low
// latency, high bandwidth, fewest hops, green (CO2) routing, and a PPL
// sequence constraint — then demonstrate the live-telemetry machinery:
// multipath connection racing, the shared telemetry monitor, hotspot-aware
// ranking, and adaptive race widths.
//
// Racing and telemetry knobs (pan.DialOptions / pan.MonitorOptions):
//
//   - RaceWidth: how many top-ranked candidates a Dialer dials
//     concurrently per connection, keeping the first completed handshake
//     (0/1 = sequential failover through up to three candidates).
//
//   - RaceStagger: racer i starts i*RaceStagger late, so a healthy first
//     choice wins without extra handshakes on the wire (0 = pan's
//     DefaultRaceStagger; negative = no stagger).
//
//   - Monitor (DialOptions.Monitor): the host's shared telemetry plane.
//     One monitor serves any number of dialers: destinations are tracked
//     while pooled, probes are phase-jittered per path with churn-adaptive
//     intervals under a global probes/sec budget (MonitorOptions), and
//     each measurement is decomposed into per-link congestion estimates.
//
//   - NewHotspotSelector(monitor): ranks by observed latency PLUS a
//     penalty for every high-variance shared link the path crosses, so
//     congestion on a link two paths share demotes both at once.
//
//   - AdaptiveRace: the dialer asks the monitor for a width per dial —
//     wide only while the leader's estimate is stale or contested, a
//     single handshake once the leader is clearly healthy.
//
// Run with:
//
//	go run ./examples/pathselection
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/experiments"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/ppl"
	"tango/internal/proxy"
	"tango/internal/topology"
)

func main() {
	world, _, err := experiments.Demo(11, proxy.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	host := world.PANHost(topology.AS111, "10.0.8.1")
	dst := topology.AS211

	paths := host.Paths(dst)
	fmt.Printf("the network offers %d paths from %s to %s:\n\n", len(paths), topology.AS111, dst)
	fmt.Printf("%-4s %-9s %-6s %-6s %-10s %s\n", "#", "latency", "hops", "MTU", "gCO2/GB", "route")
	for i, p := range paths {
		fmt.Printf("%-4d %-9v %-6d %-6d %-10.0f %s\n",
			i+1, p.Meta.Latency, len(p.Hops), p.Meta.MTU, p.Meta.CarbonPerGB, p)
	}

	fmt.Println("\npolicy-driven selection (PolicySelector, strict mode):")
	show := func(name string, s pan.Selector) {
		sel, err := host.Select(dst, s, pan.Strict)
		if err != nil {
			fmt.Printf("  %-16s -> no compliant path (%v)\n", name, err)
			return
		}
		fmt.Printf("  %-16s -> %v over %s\n", name, sel.Path.Meta.Latency, sel.Path)
	}
	showPolicy := func(name string, pol *ppl.Policy) {
		show(name, pan.NewPolicySelector(pol, nil))
	}
	showPolicy("low latency", policy.LowLatency())
	showPolicy("high bandwidth", policy.HighBandwidth())
	showPolicy("fewest hops", policy.FewestHops())
	showPolicy("green routing", policy.GreenRouting(0))

	// PPL: pin the route through core AS 1-ff00:0:110 and cap latency.
	seq, err := ppl.ParseSequence("1-ff00:0:111 1-ff00:0:110 0*")
	if err != nil {
		log.Fatal(err)
	}
	showPolicy("via 1-ff00:0:110", &ppl.Policy{Sequence: seq, Orderings: []ppl.Ordering{ppl.OrderLatency}})
	showPolicy("lat < 100ms, green", ppl.Intersect("combo",
		&ppl.Policy{MaxLatency: 100_000_000},
		policy.GreenRouting(0)))

	// Beyond policies: the pluggable selector strategies.
	fmt.Println("\npluggable selector strategies:")
	show("latency ranking", pan.NewLatencySelector())

	// Round-robin rotation advances per reported use (a Dialer reports
	// automatically; here we report by hand after each pick).
	rr := pan.NewRoundRobinSelector(nil)
	for i := 0; i < 3; i++ {
		sel, err := host.Select(dst, rr, pan.Strict)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s -> %v over %s\n", fmt.Sprintf("round-robin #%d", i+1), sel.Path.Meta.Latency, sel.Path)
		rr.Report(sel.Path, pan.Success)
	}

	// Interactive pinning (the paper's §4.2 UI hook): pin the last offered
	// path, overriding any ranking.
	pinned := pan.NewPinnedSelector(pan.NewLatencySelector())
	pinned.Pin(dst, paths[len(paths)-1].Fingerprint())
	show("pinned", pinned)

	// Failure feedback: report the best latency path down and watch the
	// ranking fail over, then recover.
	ls := pan.NewLatencySelector()
	sel, err := host.Select(dst, ls, pan.Strict)
	if err != nil {
		log.Fatal(err)
	}
	best := sel.Path
	ls.Report(best, pan.Failure)
	show("after path down", ls)
	ls.Report(best, pan.Success)
	show("after recovery", ls)

	// Live telemetry: ONE monitor per host is the shared plane every dialer
	// feeds from. The hotspot selector ranks over its link decomposition,
	// and AdaptiveRace lets it pick the race width per dial. The demo world
	// serves www.scion.example from 2-ff00:0:211 port 80 — dial it for real.
	fmt.Println("\nshared telemetry monitor + hotspot ranking + adaptive racing:")
	monitor := host.NewMonitor(pan.MonitorOptions{
		BaseInterval: 3 * time.Second, // churn-adapted per path between Base/4 and 4*Base
		Timeout:      time.Second,
		ProbeBudget:  16, // global probes/sec cap across every tracked path
	})
	live := pan.NewHotspotSelector(monitor) // latency + shared-link variance penalty
	dialer := host.NewDialer(pan.DialOptions{
		Selector:     live,
		ServerName:   "www.scion.example",
		Timeout:      2 * time.Second,
		RaceWidth:    3, // cap: adaptive racing never goes wider
		AdaptiveRace: true,
		Monitor:      monitor,
	})
	defer dialer.Close()
	remote := addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 80}
	conn, rsel, err := dialer.Dial(context.Background(), remote, "")
	if err != nil {
		log.Fatal(err)
	}
	_ = conn // pooled; the dialer owns its lifecycle
	dec := dialer.LastRace()
	fmt.Printf("  first dial       -> %v over %s\n", rsel.Path.Meta.Latency, rsel.Path)
	fmt.Printf("                      raced width %d (%s): no telemetry yet, race wide\n", dec.Width, dec.Reason)

	// The dial pooled a connection, so the destination is now tracked; a
	// daemon would just let the monitor's jittered schedule run (Start),
	// tests and demos drive deterministic rounds inline.
	monitor.RunRound()
	monitor.RunRound()
	fmt.Println("  per-path telemetry after two probe rounds:")
	for _, h := range live.PathHealth() {
		state := "live"
		if h.Down {
			state = "DOWN"
		}
		fmt.Printf("    %s  %-4s observed-rtt=%v\n", h.Fingerprint, state, h.RTT)
	}
	for _, p := range host.Paths(dst) {
		if tel, ok := monitor.Telemetry(p.Fingerprint()); ok {
			fmt.Printf("    %s  interval=%-4v dev=%-6v fresh=%v\n",
				p.Fingerprint(), tel.Interval, tel.Dev, tel.Fresh)
		}
	}

	// With fresh telemetry and a clear leader the next dial doesn't race at
	// all: width 1, zero extra handshakes on the wire.
	dialer.Invalidate() // drop the pooled conn so the next Dial decides anew
	if _, _, err := dialer.Dial(context.Background(), remote, ""); err != nil {
		log.Fatal(err)
	}
	dec = dialer.LastRace()
	fmt.Printf("  re-dial          -> raced width %d (%s)\n", dec.Width, dec.Reason)
}
