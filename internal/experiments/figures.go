package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"strings"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/squic"
	"tango/internal/stats"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// Series is one labeled PLT distribution.
type Series struct {
	Label   string
	Samples []time.Duration
}

// Figure is one reproduced experiment.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  string
}

// Render draws the figure as an ASCII box plot with per-series summaries.
func (f *Figure) Render() string {
	var b strings.Builder
	series := make([]stats.Series, len(f.Series))
	for i, s := range f.Series {
		series[i] = stats.Series{Label: s.Label, Summary: stats.SummarizeDurations(s.Samples)}
	}
	b.WriteString(stats.RenderBoxPlot(fmt.Sprintf("%s — %s", f.ID, f.Title), "ms PLT", series, 100))
	if f.Notes != "" {
		fmt.Fprintf(&b, "\n%s\n", f.Notes)
	}
	return b.String()
}

// Summaries returns per-series summaries keyed by label.
func (f *Figure) Summaries() map[string]stats.Summary {
	out := make(map[string]stats.Summary, len(f.Series))
	for _, s := range f.Series {
		out[s.Label] = stats.SummarizeDurations(s.Samples)
	}
	return out
}

// Prototype overhead calibration: the per-request costs of the
// WebExtensions interception (single JS event loop) and the prototype HTTP
// proxy. With the paper's 12-subresource pages these serialized costs
// produce the ~100 ms PLT overhead of Figure 3.
const (
	interceptCost   = 1 * time.Millisecond
	interceptJitter = 300 * time.Microsecond
	proxyCost       = 6500 * time.Microsecond
	proxyJitter     = 1500 * time.Microsecond
	// pageResources is the subresource count of every experiment page.
	pageResources = 12
	// resourceSize is each subresource's body size.
	resourceSize = 4 << 10
)

// scionServer stands up an HTTP-over-SCION server for a set of hostnames,
// registering identities and TXT records.
func (w *World) scionServer(ia addr.IA, ip string, site http.Handler, strictMaxAge time.Duration, hostnames ...string) error {
	host := w.PANHost(ia, ip)
	id, err := squic.NewIdentity(hostnames[0])
	if err != nil {
		return err
	}
	if _, err := webserver.ServeSCION(host, 80, id, site, strictMaxAge); err != nil {
		return err
	}
	scionAddr := addr.Addr{IA: ia, Host: netip.MustParseAddr(ip)}
	for _, h := range hostnames {
		w.Pool.Add(h, id.Public())
		w.Zone.AddTXT(h, time.Hour, sciondetect.FormatTXT(scionAddr))
	}
	return nil
}

// localClient builds a fig-3-style client with prototype overheads and
// the proxy options pc.
func (w *World) localClient(seed int64, pc proxy.Config) (*Client, error) {
	return w.NewClient(ClientConfig{
		IA: topology.AS111, IP: "10.0.0.1", LegacyName: "client",
		InterceptCost: interceptCost, InterceptJitter: interceptJitter,
		ProxyCost: proxyCost, ProxyJitter: proxyJitter,
		Proxy: pc,
		Seed:  seed,
	})
}

// urlsFor builds n absolute resource URLs spread round-robin over origins.
func urlsFor(n int, origins ...string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://%s/static/res-%d", origins[i%len(origins)], i)
	}
	return out
}

// addResources registers n subresource bodies on a site (matching urlsFor
// paths).
func addResources(site *webserver.Site, n int) {
	for i := 0; i < n; i++ {
		body := make([]byte, resourceSize)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		ct := []string{"application/javascript", "text/css", "image/png"}[i%3]
		site.Add(fmt.Sprintf("/static/res-%d", i), ct, body)
	}
}

// RunFig3 reproduces Figure 3: PLT box plots in the local setup (Figure 2)
// for the four experiments SCION-only, mixed SCION-IP, strict-SCION, and
// BGP/IP-only.
func RunFig3(runs int) (*Figure, error) {
	w, err := NewWorld(3, nil)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	// Local setup: every machine on the same host/AS (paper Figure 2).
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 200 * time.Microsecond})

	// SCION file server (blue host) and TCP/IP file server (grey host).
	scionSite := webserver.NewSite()
	addResources(scionSite, pageResources)
	scionSite.AddPage("/index.html", webserver.BuildPage("scion-only",
		urlsFor(pageResources, "scionfs.local")))
	// Mixed page: half the subresources from the TCP/IP FS.
	scionSite.AddPage("/mixed.html", webserver.BuildPage("mixed",
		urlsFor(pageResources, "scionfs.local", "ipfs.local")))
	// Strict page: one SCION subresource, the rest on the TCP/IP FS.
	strictURLs := urlsFor(pageResources, "ipfs.local")
	strictURLs[0] = "http://scionfs.local/static/res-0"
	scionSite.AddPage("/strict.html", webserver.BuildPage("strict", strictURLs))
	if err := w.scionServer(topology.AS111, "10.0.0.2", scionSite, 0, "scionfs.local"); err != nil {
		return nil, err
	}

	ipSite := webserver.NewSite()
	addResources(ipSite, pageResources)
	ipSite.AddPage("/index.html", webserver.BuildPage("bgp-ip-only",
		urlsFor(pageResources, "ipfs.local")))
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.10:80", ipSite); err != nil {
		return nil, err
	}
	w.Zone.AddA("ipfs.local", netip.MustParseAddr("192.0.2.10"), time.Hour)

	fig := &Figure{
		ID:    "Figure 3",
		Title: "PLT per experiment type, local setup",
		Notes: "Expected shape: SCION-only ≈ mixed > BGP/IP-only; strict-SCION short (blocks);\n" +
			"overhead stems from extension interception + HTTP proxy traversal.",
	}
	type mode struct {
		label  string
		url    string
		setup  func(*Client)
		direct bool
	}
	modes := []mode{
		{"SCION-only", "http://scionfs.local/index.html", nil, false},
		{"mixed SCION-IP", "http://scionfs.local/mixed.html", nil, false},
		{"strict-SCION", "http://scionfs.local/strict.html", func(c *Client) { c.Extension.SetStrictAll(true) }, false},
		{"BGP/IP-only", "http://ipfs.local/index.html", nil, true},
	}
	for _, m := range modes {
		var samples []time.Duration
		for run := 0; run < runs; run++ {
			c, err := w.localClient(int64(run), proxy.Config{})
			if err != nil {
				return nil, err
			}
			if m.setup != nil {
				m.setup(c)
			}
			if m.direct {
				c.Browser.SetExtensionEnabled(false)
			}
			pl, err := c.Browser.LoadPage(context.Background(), m.url)
			if err != nil && m.label != "strict-SCION" {
				return nil, fmt.Errorf("fig3 %s run %d: %w", m.label, run, err)
			}
			samples = append(samples, pl.PLT)
			c.Close()
		}
		fig.Series = append(fig.Series, Series{Label: m.label, Samples: samples})
	}
	return fig, nil
}

// remoteWorld assembles the distributed setup of Figure 4: the client in
// ISD 1, a distant TCP/IP origin whose BGP route is slow, and a SCION
// reverse proxy near the origin giving SCION access.
func remoteWorld() (*World, error) {
	w, err := NewWorld(5, nil)
	if err != nil {
		return nil, err
	}
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})
	// DNS sits near the client.
	w.Legacy.SetRoute("client", "dns", netsim.RouteProps{Latency: 2 * time.Millisecond})

	// Distant origin: BGP routes via the slow geodesic (cf. the 110-210
	// core link), while the best SCION path runs 111-110-120-210-211 at
	// 91 ms one way.
	const remoteBGP = 120 * time.Millisecond
	w.Legacy.SetRoute("client", "198.51.100.10", netsim.RouteProps{Latency: remoteBGP})
	remoteOrigin := webserver.NewSite()
	addResources(remoteOrigin, pageResources)
	remoteOrigin.AddPage("/single.html", webserver.BuildPage("remote single origin",
		urlsFor(pageResources, "remote.example")))
	remoteOrigin.AddPage("/multi.html", webserver.BuildPage("remote multi origin",
		urlsFor(pageResources, "remote.example", "eu.example", "asia.example")))
	if _, err := webserver.ServeIP(w.Legacy, "198.51.100.10:80", remoteOrigin); err != nil {
		return nil, err
	}
	w.Zone.AddA("remote.example", netip.MustParseAddr("198.51.100.10"), time.Hour)

	// SCION reverse proxy next to the distant origin (AS 211).
	w.Legacy.SetRoute("rp-remote", "198.51.100.10", netsim.RouteProps{Latency: 2 * time.Millisecond})
	rp := webserver.NewReverseProxy(w.Legacy, "rp-remote", "198.51.100.10:80")
	rpHost := w.PANHost(topology.AS211, "10.0.0.50")
	rpID, err := squic.NewIdentity("remote.example")
	if err != nil {
		return nil, err
	}
	if _, err := webserver.ServeSCION(rpHost, 80, rpID, rp, 0); err != nil {
		return nil, err
	}
	w.Pool.Add("remote.example", rpID.Public())
	w.Zone.AddTXT("remote.example", time.Hour,
		sciondetect.FormatTXT(addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.50")}))

	// Secondary origins for the multi-origin page: a nearby IP-only origin
	// and a medium-distance origin whose IP route beats its SCION path.
	w.Legacy.SetRoute("client", "203.0.113.20", netsim.RouteProps{Latency: 5 * time.Millisecond})
	euSite := webserver.NewSite()
	addResources(euSite, pageResources)
	if _, err := webserver.ServeIP(w.Legacy, "203.0.113.20:80", euSite); err != nil {
		return nil, err
	}
	w.Zone.AddA("eu.example", netip.MustParseAddr("203.0.113.20"), time.Hour)

	w.Legacy.SetRoute("client", "203.0.113.30", netsim.RouteProps{Latency: 60 * time.Millisecond})
	asiaSite := webserver.NewSite()
	addResources(asiaSite, pageResources)
	if _, err := webserver.ServeIP(w.Legacy, "203.0.113.30:80", asiaSite); err != nil {
		return nil, err
	}
	w.Zone.AddA("asia.example", netip.MustParseAddr("203.0.113.30"), time.Hour)
	// asia.example is also SCION-reachable via a reverse proxy in AS 221,
	// but its best path (80 ms) loses to its 60 ms BGP route.
	w.Legacy.SetRoute("rp-asia", "203.0.113.30", netsim.RouteProps{Latency: 2 * time.Millisecond})
	asiaRP := webserver.NewReverseProxy(w.Legacy, "rp-asia", "203.0.113.30:80")
	asiaHost := w.PANHost(topology.AS221, "10.0.0.60")
	asiaID, err := squic.NewIdentity("asia.example")
	if err != nil {
		return nil, err
	}
	if _, err := webserver.ServeSCION(asiaHost, 80, asiaID, asiaRP, 0); err != nil {
		return nil, err
	}
	w.Pool.Add("asia.example", asiaID.Public())
	w.Zone.AddTXT("asia.example", time.Hour,
		sciondetect.FormatTXT(addr.Addr{IA: topology.AS221, Host: netip.MustParseAddr("10.0.0.60")}))

	return w, nil
}

// runPLTComparison loads the given URLs with the extension enabled (SCION)
// and disabled (IPv4/6) and returns one series per (URL, mode).
func runPLTComparison(w *World, runs int, pages map[string]string) ([]Series, error) {
	var out []Series
	for _, label := range sortedKeys(pages) {
		url := pages[label]
		for _, mode := range []struct {
			name    string
			enabled bool
		}{{"SCION", true}, {"IPv4/6", false}} {
			var samples []time.Duration
			for run := 0; run < runs; run++ {
				c, err := w.localClient(int64(run), proxy.Config{})
				if err != nil {
					return nil, err
				}
				c.Browser.SetExtensionEnabled(mode.enabled)
				pl, err := c.Browser.LoadPage(context.Background(), url)
				if err != nil {
					return nil, fmt.Errorf("%s (%s) run %d: %w", label, mode.name, run, err)
				}
				samples = append(samples, pl.PLT)
				c.Close()
			}
			out = append(out, Series{Label: label + " " + mode.name, Samples: samples})
		}
	}
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Small fixed sets: simple insertion sort keeps imports lean.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RunFig5 reproduces Figure 5: PLT for pages hosted in distant locations,
// over SCION vs IPv4/6, with single- and multi-origin pages. SCION wins the
// single-origin case through path-aware low-latency path selection.
func RunFig5(runs int) (*Figure, error) {
	w, err := remoteWorld()
	if err != nil {
		return nil, err
	}
	defer w.Close()
	series, err := runPLTComparison(w, runs, map[string]string{
		"single-origin": "http://remote.example/single.html",
		"multi-origin":  "http://remote.example/multi.html",
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Figure 5",
		Title:  "PLT for remote pages, SCION vs IPv4/6",
		Series: series,
		Notes: "Expected shape: SCION < IPv4/6 for the single-origin page (path awareness\n" +
			"picks a lower-latency path than the BGP route); the multi-origin page narrows the gap.",
	}, nil
}

// RunFig6 reproduces Figure 6: PLT for an AS-local (nearby) page where the
// SCION and BGP paths are similar, so the extension's overhead shows as a
// small PLT increase.
func RunFig6(runs int) (*Figure, error) {
	w, err := NewWorld(6, nil)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})
	w.Legacy.SetRoute("client", "dns", netsim.RouteProps{Latency: 2 * time.Millisecond})

	// Nearby origin: 10 ms BGP; SCION via a reverse proxy in the sibling
	// AS 112 (best path 7 ms) plus a 4 ms legacy leg — comparable paths
	// (11 ms vs 10 ms), so only the prototype overhead differentiates.
	w.Legacy.SetRoute("client", "192.0.2.40", netsim.RouteProps{Latency: 10 * time.Millisecond})
	site := webserver.NewSite()
	addResources(site, pageResources)
	site.AddPage("/single.html", webserver.BuildPage("near single origin",
		urlsFor(pageResources, "near.example")))
	site.AddPage("/multi.html", webserver.BuildPage("near multi origin",
		urlsFor(pageResources, "near.example", "near2.example")))
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.40:80", site); err != nil {
		return nil, err
	}
	w.Zone.AddA("near.example", netip.MustParseAddr("192.0.2.40"), time.Hour)

	w.Legacy.SetRoute("rp-near", "192.0.2.40", netsim.RouteProps{Latency: 4 * time.Millisecond})
	rp := webserver.NewReverseProxy(w.Legacy, "rp-near", "192.0.2.40:80")
	rpHost := w.PANHost(topology.AS112, "10.0.0.70")
	rpID, err := squic.NewIdentity("near.example")
	if err != nil {
		return nil, err
	}
	if _, err := webserver.ServeSCION(rpHost, 80, rpID, rp, 0); err != nil {
		return nil, err
	}
	w.Pool.Add("near.example", rpID.Public())
	w.Zone.AddTXT("near.example", time.Hour,
		sciondetect.FormatTXT(addr.Addr{IA: topology.AS112, Host: netip.MustParseAddr("10.0.0.70")}))

	// Second nearby origin, IP-only.
	w.Legacy.SetRoute("client", "192.0.2.41", netsim.RouteProps{Latency: 8 * time.Millisecond})
	site2 := webserver.NewSite()
	addResources(site2, pageResources)
	if _, err := webserver.ServeIP(w.Legacy, "192.0.2.41:80", site2); err != nil {
		return nil, err
	}
	w.Zone.AddA("near2.example", netip.MustParseAddr("192.0.2.41"), time.Hour)

	series, err := runPLTComparison(w, runs, map[string]string{
		"single-origin": "http://near.example/single.html",
		"multi-origin":  "http://near.example/multi.html",
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Figure 6",
		Title:  "PLT for an AS-local page, SCION vs IPv4/6",
		Series: series,
		Notes:  "Expected shape: paths similar ⇒ the extension adds a small overhead over the baseline.",
	}, nil
}
