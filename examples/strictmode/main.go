// Strictmode: the Strict-SCION response header (paper §4.2) — an HSTS-like
// pin with which an operator promises that the whole site works over SCION.
// Once the browser has seen the pin, it enforces strict mode for that host
// until the pin's max-age expires, blocking any non-SCION fallback.
//
//	go run ./examples/strictmode
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tango/internal/experiments"
	"tango/internal/proxy"
)

func main() {
	world, client, err := experiments.Demo(12, proxy.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	ctx := context.Background()

	// www.scion.example serves "Strict-SCION: max-age=3600".
	const host = "www.scion.example"
	const page = "http://" + host + "/index.html"

	fmt.Printf("pin active before first visit: %v\n", client.Store.Active(host))

	pl, err := client.Browser.LoadPage(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first visit: indicator=%s PLT=%v\n", pl.Indicator, pl.PLT)
	fmt.Printf("pin active after first visit:  %v\n", client.Store.Active(host))

	// With the pin in place the extension enforces strict mode for this
	// host automatically — even without the user enabling anything.
	pl, err = client.Browser.LoadPage(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned visit: indicator=%s blocked=%d (all resources must ride SCION)\n",
		pl.Indicator, pl.Blocked)

	// The pin expires with its max-age; afterwards opportunistic fallback
	// is allowed again.
	world.Clock.Sleep(2 * time.Hour)
	fmt.Printf("pin active after max-age:      %v\n", client.Store.Active(host))

	// A site can also clear its pin early with max-age=0 — simulate by
	// pinning and clearing through the store API.
	client.Store.Pin(host, time.Hour)
	client.Store.Pin(host, 0)
	fmt.Printf("pin active after max-age=0:    %v\n", client.Store.Active(host))
}
