// Quickstart: bring up a simulated SCION world — topology, beaconing, data
// plane, host stacks — then serve a page over HTTP/squic/SCION and fetch it
// with policy-driven path selection.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/shttp"
	"tango/internal/squic"
	"tango/internal/testbed"
)

func main() {
	// 1. A beaconed SCION world on a virtual clock: the default topology
	//    (two ISDs, ten ASes, core/parent/peering links), control-plane
	//    credentials and one round of beaconing, which discovers and
	//    registers all path segments, then border routers and links.
	clock := testbed.NewClock()
	world, err := testbed.NewWorld(clock, nil, 42)
	if err != nil {
		log.Fatal(err)
	}
	stop := testbed.Advance(clock)
	defer stop()

	// 2. Host stacks: one server in ISD 2, one client in ISD 1.
	remote, err := addr.ParseUDPAddr("2-ff00:0:211,10.0.0.2:443")
	if err != nil {
		log.Fatal(err)
	}
	pool := squic.NewCertPool()
	server := pan.NewHost(world.Stack(remote.IA, remote.Host.String()), world.Combiner, pool)
	client := pan.NewHost(world.Stack(addr.MustIA(1, 0xff00_0000_0111), "10.0.0.1"), world.Combiner, pool)

	// 3. Serve HTTP over SCION.
	identity, err := squic.NewIdentity("hello.scion")
	if err != nil {
		log.Fatal(err)
	}
	pool.AddIdentity(identity)
	lis, err := server.Listen(remote.Port, identity)
	if err != nil {
		log.Fatal(err)
	}
	defer lis.Close()
	go shttp.Serve(lis, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from %s over SCION!", server.Local())
	}))

	// 4. Fetch it with a Dialer: a PolicySelector ranks the paths (lowest
	//    latency first), strict mode refuses non-compliant ones, and
	//    repeated requests reuse the pooled connection.
	dialer := client.NewDialer(pan.DialOptions{
		Selector:   pan.NewPolicySelector(policy.LowLatency(), nil),
		Mode:       pan.Strict,
		ServerName: "hello.scion",
	})
	defer dialer.Close()
	transport := shttp.NewTransport(func(ctx context.Context, authority string) (*squic.Conn, error) {
		conn, sel, err := dialer.Dial(ctx, remote, "")
		if err != nil {
			return nil, err
		}
		fmt.Printf("selected path: %s\n", sel.Path)
		fmt.Printf("  latency %v, MTU %d, carbon %.0f gCO2/GB, countries %v\n",
			sel.Path.Meta.Latency, sel.Path.Meta.MTU, sel.Path.Meta.CarbonPerGB, sel.Path.Meta.Countries)
		fmt.Printf("  (%d paths offered, %d policy-compliant)\n", sel.Options, sel.CompliantOptions)
		return conn, nil
	})
	defer transport.CloseIdleConnections()

	resp, err := (&http.Client{Transport: transport}).Get("http://hello.scion/")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("response: %s\n", body)
}
