// Command browsersim drives the simulated browser through the full
// extension + SKIP proxy + SCION pipeline against the demo world and prints
// a page-load report: per-resource transport (SCION vs IP), path
// fingerprints, policy compliance, the UI indicator, and the PLT.
//
//	browsersim -url http://www.scion.example/index.html
//	browsersim -url http://www.scion.example/index.html -block-isd 2
//	browsersim -url http://www.scion.example/index.html -block-isd 2 -strict
//	browsersim -url http://www.legacy.example/index.html -no-extension
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/experiments"
	"tango/internal/policy"
	"tango/internal/proxy"
)

func main() {
	url := flag.String("url", "http://www.scion.example/index.html", "page to load")
	blockISD := flag.Int("block-isd", 0, "geofence: block this ISD (0 = none)")
	strict := flag.Bool("strict", false, "enable strict mode for all hosts")
	noExt := flag.Bool("no-extension", false, "disable the extension (direct BGP/IP fetching)")
	raceWidth := flag.Int("race-width", 0, "race this many top-ranked paths per SCION connection")
	probeInterval := flag.Duration("probe-interval", 0, "background path telemetry probe interval (0 = off)")
	adaptiveRace := flag.Bool("adaptive-race", false, "tune the race width from telemetry (needs -probe-interval)")
	passive := flag.Bool("passive", true, "feed live-traffic RTTs into the telemetry monitor as zero-cost samples (needs -probe-interval)")
	flag.Parse()
	if *adaptiveRace && *probeInterval <= 0 {
		fmt.Fprintln(os.Stderr, "-adaptive-race needs -probe-interval")
		os.Exit(1)
	}

	w, client, err := experiments.Demo(1, proxy.Config{
		RaceWidth:     *raceWidth,
		ProbeInterval: *probeInterval,
		AdaptiveRace:  *adaptiveRace,
		Passive:       *passive,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building world: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()

	if *blockISD > 0 {
		fence := policy.NewBlockGeofence(addr.ISD(*blockISD))
		client.Extension.SetGeofence(fence)
		fmt.Printf("geofence: %s\n", fence)
	}
	if *strict {
		client.Extension.SetStrictAll(true)
		fmt.Println("strict mode: on")
	}
	if *noExt {
		client.Browser.SetExtensionEnabled(false)
		fmt.Println("extension: disabled (BGP/IP only)")
	}
	if *raceWidth > 1 {
		fmt.Printf("racing: top %d ranked paths per connection\n", *raceWidth)
	}
	if *probeInterval > 0 {
		fmt.Printf("probing: telemetry monitor at %v base interval\n", *probeInterval)
		if *passive {
			fmt.Println("passive telemetry: browsed origins sustain their own estimates for free")
		}
	}
	if *adaptiveRace {
		fmt.Println("adaptive racing: width picked per dial from telemetry")
	}

	pl, err := client.Browser.LoadPage(context.Background(), *url)
	if *probeInterval > 0 {
		// Let the monitor's jittered schedule complete a probe round so the
		// telemetry printout below shows live RTTs and link estimates.
		w.Clock.Sleep(*probeInterval + *probeInterval/4)
	}
	if pl != nil {
		fmt.Printf("\nPage:      %s\n", pl.URL)
		fmt.Printf("PLT:       %v\n", pl.PLT)
		fmt.Printf("Indicator: %s (policy compliant: %v, blocked: %d)\n", pl.Indicator, pl.Compliant, pl.Blocked)
		fmt.Printf("\n%-52s %-7s %-6s %s\n", "resource", "status", "via", "compliant")
		resources := append([]browser.ResourceResult{pl.Main}, pl.Resources...)
		for _, res := range resources {
			status := fmt.Sprintf("%d", res.Status)
			if res.Blocked {
				status = "BLOCKED"
			} else if res.Err != "" {
				status = "ERR"
			}
			fmt.Printf("%-52s %-7s %-6s %v\n", trunc(res.URL, 52), status, res.Via, res.Compliant)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "\nload failed: %v\n", err)
		os.Exit(1)
	}

	snap := client.Proxy.Stats().Snapshot()
	fmt.Printf("\nproxy stats: %v\n", snap.ByVia)
	for _, p := range snap.Paths {
		fmt.Printf("  path %s: %d requests, %d bytes, compliant=%v\n", p.Fingerprint, p.Requests, p.Bytes, p.Compliant)
	}
	// Per-path liveness from the proxy's telemetry feed (paper §4.2): what
	// the UI would render next to each path.
	for _, h := range client.Proxy.PathHealth() {
		state := "live"
		if h.Down {
			state = "DOWN"
		}
		if h.RTT > 0 {
			fmt.Printf("  path %s: %s, rtt=%v\n", h.Fingerprint, state, h.RTT)
		} else {
			fmt.Printf("  path %s: %s\n", h.Fingerprint, state)
		}
	}
	// Per-link congestion from the monitor's probe decomposition: where
	// the variance lives, not just which paths feel it.
	for _, l := range client.Proxy.LinkStats() {
		fmt.Printf("  link %s <-> %s: excess=%v dev=%v sharers=%d\n", l.A, l.B, l.Congestion, l.Dev, l.Sharers)
	}
	// Passive-vs-probe sample split per origin: which destinations pay for
	// their own telemetry with live traffic and which draw on the budget.
	for host, split := range client.Proxy.SampleSplits() {
		fmt.Printf("  origin %s: %d passive / %d probe samples\n", host, split.Passive, split.Probes)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
