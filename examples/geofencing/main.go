// Geofencing: the paper's flagship user-driven property. A user blocks an
// isolation domain; the browser+proxy pipeline then either flags
// non-compliant loads (opportunistic mode) or refuses them outright (strict
// mode), and reroutes around blocked regions when alternatives exist.
//
//	go run ./examples/geofencing
package main

import (
	"context"
	"fmt"
	"log"

	"tango/internal/experiments"
	"tango/internal/policy"
	"tango/internal/proxy"
)

func main() {
	world, client, err := experiments.Demo(10, proxy.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// www.proxied.example is SCION-reachable (via a reverse proxy in ISD 2)
	// and does not pin Strict-SCION, so mode stays the user's choice.
	const page = "http://www.proxied.example/index.html"
	ctx := context.Background()

	// Baseline: no geofence — compliant load over SCION.
	pl, err := client.Browser.LoadPage(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("no geofence:        indicator=%-10s compliant=%-5v PLT=%v\n", pl.Indicator, pl.Compliant, pl.PLT)

	// The user blocks ISD 2 — where the site lives. Opportunistic mode
	// still loads the page but surfaces the violation ("the user is
	// informed of the non-compliance", paper §4.2).
	client.Extension.SetGeofence(policy.NewBlockGeofence(2))
	pl, err = client.Browser.LoadPage(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block ISD 2 (opp.): indicator=%-10s compliant=%-5v PLT=%v\n", pl.Indicator, pl.Compliant, pl.PLT)

	// Strict mode: "the browser will display a connection error if no such
	// path is found."
	client.Extension.SetStrictAll(true)
	if _, err := client.Browser.LoadPage(ctx, page); err != nil {
		fmt.Printf("block ISD 2 (strict): connection refused as expected: %v\n", err)
	} else {
		log.Fatal("strict mode should have blocked the load")
	}
	client.Extension.SetStrictAll(false)

	// A geofence that the network can satisfy: allow ISDs 1 and 2 (all
	// paths comply), demonstrated with the per-path statistics feedback.
	client.Extension.SetGeofence(policy.NewAllowGeofence(1, 2))
	pl, err = client.Browser.LoadPage(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allow ISDs 1,2:     indicator=%-10s compliant=%-5v PLT=%v\n", pl.Indicator, pl.Compliant, pl.PLT)

	fmt.Println("\npath usage feedback:")
	for _, p := range client.Proxy.Stats().Snapshot().Paths {
		fmt.Printf("  %s  requests=%-4d compliant=%v\n", p.Fingerprint, p.Requests, p.Compliant)
	}
}
