package experiments

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"tango/internal/browser"
	"tango/internal/netsim"
	"tango/internal/proxy"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// Small fixture helpers shared by the behaviour tests.

func netsimRoute(lat time.Duration) netsim.RouteProps { return netsim.RouteProps{Latency: lat} }

func newStandardScionSite() *webserver.Site {
	site := webserver.NewSite()
	addResources(site, pageResources)
	site.AddPage("/index.html", webserver.BuildPage("scion-only", urlsFor(pageResources, "scionfs.local")))
	site.AddPage("/mixed.html", webserver.BuildPage("mixed", urlsFor(pageResources, "scionfs.local", "ipfs.local")))
	strictURLs := urlsFor(pageResources, "ipfs.local")
	strictURLs[0] = "http://scionfs.local/static/res-0"
	site.AddPage("/strict.html", webserver.BuildPage("strict", strictURLs))
	return site
}

func newStandardIPSite() *webserver.Site {
	site := webserver.NewSite()
	addResources(site, pageResources)
	site.AddPage("/index.html", webserver.BuildPage("ip", urlsFor(pageResources, "ipfs.local")))
	return site
}

func serveIP(w *World, hostport string, site *webserver.Site) (*webserver.IPServer, error) {
	return webserver.ServeIP(w.Legacy, hostport, site)
}

func addAZone(w *World, name, ip string) {
	w.Zone.AddA(name, netip.MustParseAddr(ip), time.Hour)
}

// testRuns keeps virtual-world tests quick; the cmd harness uses 30.
const testRuns = 5

func TestFig3ShapeMatchesPaper(t *testing.T) {
	fig, err := RunFig3(testRuns)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Summaries()
	scionOnly := s["SCION-only"].Median
	mixed := s["mixed SCION-IP"].Median
	strict := s["strict-SCION"].Median
	bgp := s["BGP/IP-only"].Median
	t.Logf("medians (ms): scion-only=%.1f mixed=%.1f strict=%.1f bgp=%.1f", scionOnly, mixed, strict, bgp)

	// Paper: "The results show a longer PLT for the SCION-only and the
	// mixed SCION-IP (approximately 100 ms) with respect to the PLT when
	// the extension is disabled (BGP/IP-Only) and to the strict-SCION
	// experiment."
	if !(scionOnly > bgp && mixed > bgp) {
		t.Errorf("proxied experiments must exceed BGP/IP-only")
	}
	if overhead := scionOnly - bgp; overhead < 50 || overhead > 200 {
		t.Errorf("SCION-only overhead = %.1f ms, want ~100 ms", overhead)
	}
	if overhead := mixed - bgp; overhead < 50 || overhead > 200 {
		t.Errorf("mixed overhead = %.1f ms, want ~100 ms", overhead)
	}
	if !(strict < scionOnly && strict < mixed) {
		t.Errorf("strict-SCION must be shorter than the proxied full loads")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	fig, err := RunFig5(testRuns)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Summaries()
	singleSCION := s["single-origin SCION"].Median
	singleIP := s["single-origin IPv4/6"].Median
	multiSCION := s["multi-origin SCION"].Median
	multiIP := s["multi-origin IPv4/6"].Median
	t.Logf("medians (ms): single scion=%.1f ip=%.1f | multi scion=%.1f ip=%.1f",
		singleSCION, singleIP, multiSCION, multiIP)

	// Paper: "For the single origin page, we observe that the PLT improves
	// significantly when the resource is loaded via SCION."
	if singleSCION >= singleIP {
		t.Errorf("single-origin SCION (%.1f) must beat IPv4/6 (%.1f)", singleSCION, singleIP)
	}
	if gain := (singleIP - singleSCION) / singleIP; gain < 0.10 {
		t.Errorf("single-origin SCION gain = %.0f%%, want significant", gain*100)
	}
	// The multi-origin page narrows the relative gap.
	singleGap := (singleIP - singleSCION) / singleIP
	multiGap := (multiIP - multiSCION) / multiIP
	if multiGap >= singleGap {
		t.Errorf("multi-origin gap (%.2f) should be narrower than single-origin (%.2f)", multiGap, singleGap)
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	fig, err := RunFig6(testRuns)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Summaries()
	singleSCION := s["single-origin SCION"].Median
	singleIP := s["single-origin IPv4/6"].Median
	t.Logf("medians (ms): single scion=%.1f ip=%.1f", singleSCION, singleIP)

	// Paper: "when paths are similar, the extension adds a small overhead
	// compared to the baseline."
	if singleSCION <= singleIP {
		t.Errorf("AS-local page over SCION (%.1f) should cost slightly more than IPv4/6 (%.1f)", singleSCION, singleIP)
	}
	if singleSCION > 3*singleIP {
		t.Errorf("overhead too large: scion=%.1f ip=%.1f", singleSCION, singleIP)
	}
}

// behaviourWorld rebuilds the Figure 3 world for §4.2 behaviour tests.
func behaviourWorld(t *testing.T) (*World, *Client) {
	t.Helper()
	w, err := NewWorld(99, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	w.Legacy.SetDefaultRoute(netsimRoute(200 * time.Microsecond))

	scionSite := newStandardScionSite()
	if err := w.scionServer(topology.AS111, "10.0.0.2", scionSite, 0, "scionfs.local"); err != nil {
		t.Fatal(err)
	}
	ipSite := newStandardIPSite()
	if _, err := serveIP(w, "192.0.2.10:80", ipSite); err != nil {
		t.Fatal(err)
	}
	addAZone(w, "ipfs.local", "192.0.2.10")

	c, err := w.localClient(0, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func TestIndicatorAllSomeNone(t *testing.T) {
	_, c := behaviourWorld(t)
	ctx := context.Background()

	pl, err := c.Browser.LoadPage(ctx, "http://scionfs.local/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Indicator != browser.AllSCION {
		t.Errorf("scion-only page indicator = %v, want all-scion", pl.Indicator)
	}
	pl, err = c.Browser.LoadPage(ctx, "http://scionfs.local/mixed.html")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Indicator != browser.SomeSCION {
		t.Errorf("mixed page indicator = %v, want some-scion", pl.Indicator)
	}
	pl, err = c.Browser.LoadPage(ctx, "http://ipfs.local/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Indicator != browser.NoSCION {
		t.Errorf("ip page indicator = %v, want no-scion", pl.Indicator)
	}
}

func TestStrictModeBlocksIPResources(t *testing.T) {
	_, c := behaviourWorld(t)
	c.Extension.SetStrictAll(true)
	pl, err := c.Browser.LoadPage(context.Background(), "http://scionfs.local/strict.html")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Blocked != pageResources-1 {
		t.Errorf("blocked = %d, want %d (all IP resources)", pl.Blocked, pageResources-1)
	}
	loaded := 0
	for _, r := range pl.Resources {
		if !r.Blocked && r.Err == "" {
			loaded++
			if r.Via != proxy.ViaSCION {
				t.Errorf("strict-mode resource %s loaded via %s", r.URL, r.Via)
			}
		}
	}
	if loaded != 1 {
		t.Errorf("loaded %d resources, want exactly the one SCION resource", loaded)
	}
	// Strict main page on an IP-only site must fail entirely.
	if _, err := c.Browser.LoadPage(context.Background(), "http://ipfs.local/index.html"); err == nil {
		t.Error("strict load of IP-only site should fail")
	}
}

func TestProxyStatsFeedback(t *testing.T) {
	_, c := behaviourWorld(t)
	if _, err := c.Browser.LoadPage(context.Background(), "http://scionfs.local/mixed.html"); err != nil {
		t.Fatal(err)
	}
	snap := c.Proxy.Stats().Snapshot()
	if snap.ByVia[proxy.ViaSCION] == 0 || snap.ByVia[proxy.ViaIP] == 0 {
		t.Fatalf("stats should show both vias: %+v", snap.ByVia)
	}
	if len(snap.Paths) == 0 {
		t.Fatal("no per-path usage recorded")
	}
	if snap.Paths[0].Requests == 0 || snap.Paths[0].Fingerprint == "" {
		t.Fatalf("path usage malformed: %+v", snap.Paths[0])
	}
}

func TestFig3AblationOverheadDisappears(t *testing.T) {
	fig, err := RunFig3Ablation(testRuns)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Summaries()
	proto := s["prototype (ext+proxy)"].Median
	noProxy := s["no-proxy (ext only)"].Median
	native := s["native integration"].Median
	baseline := s["BGP/IP-only baseline"].Median
	t.Logf("medians (ms): prototype=%.1f no-proxy=%.1f native=%.1f baseline=%.1f",
		proto, noProxy, native, baseline)
	if !(proto > noProxy && noProxy > native) {
		t.Errorf("overhead must shrink monotonically with tighter integration")
	}
	// "We expect the overhead to disappear": native integration lands within
	// a few ms of the legacy baseline.
	if native > baseline+10 {
		t.Errorf("native integration overhead = %.1f ms, want near baseline", native-baseline)
	}
}
