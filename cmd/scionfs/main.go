// Command scionfs demonstrates the SCION file server: it serves a static
// site over HTTP/squic/SCION in a simulated world (the "SCION FS" of the
// paper's Figure 2), fetches the site through the PAN stack, and prints the
// transfer results together with the path that carried them.
//
//	scionfs -resources 12 -size 4096
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"

	"tango/internal/addr"
	"tango/internal/experiments"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/shttp"
	"tango/internal/squic"
	"tango/internal/topology"
	"tango/internal/webserver"
)

func main() {
	resources := flag.Int("resources", 12, "subresources on the served page")
	size := flag.Int("size", 4096, "bytes per subresource")
	flag.Parse()

	w, _, err := experiments.Demo(3, proxy.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building world: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()

	// Stand up a fresh SCION file server in 2-ff00:0:210.
	site := webserver.StandardSite(*resources, *size)
	host := w.PANHost(topology.Core210, "10.0.9.1")
	id, err := squic.NewIdentity("fs.demo")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w.Pool.Add("fs.demo", id.Public())
	srv, err := webserver.ServeSCION(host, 443, id, site, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("SCION file server: 2-ff00:0:210,10.0.9.1:443 serving %d paths\n", len(site.Paths()))

	// Fetch everything through the PAN client API: a latency-ranking
	// selector behind a Dialer, whose pooled connection carries all
	// requests after the first.
	client := w.PANHost(topology.AS111, "10.0.9.2")
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.Core210, Host: netip.MustParseAddr("10.0.9.1")}, Port: 443}
	dialer := client.NewDialer(pan.DialOptions{
		Selector:   pan.NewLatencySelector(),
		ServerName: "fs.demo",
	})
	defer dialer.Close()
	tr := shttp.NewTransport(func(ctx context.Context, authority string) (*squic.Conn, error) {
		conn, sel, err := dialer.Dial(ctx, remote, "")
		if err != nil {
			return nil, err
		}
		fmt.Printf("dialed over path: %s (%v one-way, MTU %d)\n",
			sel.Path, sel.Path.Meta.Latency, sel.Path.Meta.MTU)
		return conn, nil
	})
	defer tr.CloseIdleConnections()
	httpClient := &http.Client{Transport: tr}

	total := int64(0)
	start := w.Clock.Now()
	for _, path := range site.Paths() {
		resp, err := httpClient.Get("http://fs.demo" + path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "GET %s: %v\n", path, err)
			os.Exit(1)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		total += n
	}
	fmt.Printf("fetched %d resources, %d bytes, in %v (virtual)\n",
		len(site.Paths()), total, w.Clock.Since(start))
}
