package experiments

import (
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/squic"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// Demo assembles the standard demonstration world used by the command-line
// tools and examples: a client in 1-ff00:0:111 with browser, extension, and
// SKIP proxy, plus three origins —
//
//	www.scion.example   SCION-native server in 2-ff00:0:211 (Strict-SCION),
//	                    also reachable over slow legacy IP
//	www.legacy.example  IP-only origin
//	www.proxied.example IP origin fronted by a SCION reverse proxy in
//	                    2-ff00:0:221
//
// pc sets the client proxy's options (racing, probing, passive telemetry,
// striping); the zero value is the plain proxy.
func Demo(seed int64, pc proxy.Config) (*World, *Client, error) {
	w, err := NewWorld(seed, nil)
	if err != nil {
		return nil, nil, err
	}
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})
	w.Legacy.SetRoute("client", "dns", netsim.RouteProps{Latency: time.Millisecond})

	// SCION-native origin in ISD 2, with a slow legacy fallback route and a
	// Strict-SCION pin.
	scionSite := webserver.NewSite()
	addResources(scionSite, pageResources)
	addBigResource(scionSite)
	scionSite.AddPage("/index.html", webserver.BuildPage("scion-native",
		urlsFor(pageResources, "www.scion.example")))
	if err := w.scionServer(topology.AS211, "10.0.0.2", scionSite, time.Hour, "www.scion.example"); err != nil {
		return nil, nil, err
	}
	w.Legacy.SetRoute("client", "198.51.100.2", netsim.RouteProps{Latency: 120 * time.Millisecond})
	if _, err := webserver.ServeIP(w.Legacy, "198.51.100.2:80", scionSite); err != nil {
		return nil, nil, err
	}
	w.Zone.AddA("www.scion.example", netip.MustParseAddr("198.51.100.2"), time.Hour)

	// IP-only origin.
	legacySite := webserver.NewSite()
	addResources(legacySite, pageResources)
	legacySite.AddPage("/index.html", webserver.BuildPage("legacy",
		urlsFor(pageResources, "www.legacy.example")))
	w.Legacy.SetRoute("client", "192.0.2.2", netsim.RouteProps{Latency: 15 * time.Millisecond})
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.2:80", legacySite); err != nil {
		return nil, nil, err
	}
	w.Zone.AddA("www.legacy.example", netip.MustParseAddr("192.0.2.2"), time.Hour)

	// IP origin behind a SCION reverse proxy.
	proxiedSite := webserver.NewSite()
	addResources(proxiedSite, pageResources)
	addBigResource(proxiedSite)
	proxiedSite.AddPage("/index.html", webserver.BuildPage("proxied",
		urlsFor(pageResources, "www.proxied.example")))
	w.Legacy.SetRoute("client", "192.0.2.3", netsim.RouteProps{Latency: 80 * time.Millisecond})
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.3:80", proxiedSite); err != nil {
		return nil, nil, err
	}
	w.Zone.AddA("www.proxied.example", netip.MustParseAddr("192.0.2.3"), time.Hour)
	w.Legacy.SetRoute("rp", "192.0.2.3", netsim.RouteProps{Latency: 2 * time.Millisecond})
	if err := w.reverseProxy(topology.AS221, "10.0.0.3", "rp", "192.0.2.3:80", "www.proxied.example"); err != nil {
		return nil, nil, err
	}

	c, err := w.localClient(seed, pc)
	if err != nil {
		return nil, nil, err
	}
	return w, c, nil
}

// BigResourcePath is the demo sites' large download, sized well above the
// default stripe threshold so the CLI tools can demonstrate striped fetches.
const BigResourcePath = "/static/big.bin"

// BigResourceSize is the byte length of BigResourcePath's body.
const BigResourceSize = 1 << 20

// addBigResource registers the deterministic large download on a site. It is
// not referenced from any index page, so page-load experiments are unaffected.
func addBigResource(site *webserver.Site) {
	body := make([]byte, BigResourceSize)
	for i := range body {
		body[i] = byte(i % 251)
	}
	site.Add(BigResourcePath, "application/octet-stream", body)
}

// reverseProxy stands up a SCION reverse proxy for an IP origin.
func (w *World) reverseProxy(ia addr.IA, ip, legacyName, origin string, hostnames ...string) error {
	rp := webserver.NewReverseProxy(w.Legacy, legacyName, origin)
	host := w.PANHost(ia, ip)
	id, err := squic.NewIdentity(hostnames[0])
	if err != nil {
		return err
	}
	if _, err := webserver.ServeSCION(host, 80, id, rp, 0); err != nil {
		return err
	}
	scionAddr := addr.Addr{IA: ia, Host: netip.MustParseAddr(ip)}
	for _, h := range hostnames {
		w.Pool.Add(h, id.Public())
		w.Zone.AddTXT(h, time.Hour, sciondetect.FormatTXT(scionAddr))
	}
	return nil
}
