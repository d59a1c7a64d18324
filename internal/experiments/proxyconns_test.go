package experiments

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"

	"tango/internal/browser"
	"tango/internal/proxy"
	"tango/internal/topology"
)

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestBrowserKeepsProxyConns: a browser loading page after page through its
// proxy keeps the connections it opened to it. Three loads of a page with
// 12 subresources, with the prototype's interception and proxy costs, open
// at most the browser's 6 connections to the proxy's loopback listener: an
// idle cap below the connection cap closes the surplus after every page and
// dials it again on the next (14 dials with net/http's default of 2).
func TestBrowserKeepsProxyConns(t *testing.T) {
	w, err := NewWorld(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.scionServer(topology.AS111, "10.0.0.2", newStandardScionSite(), 0, "scionfs.local"); err != nil {
		t.Fatal(err)
	}
	c, err := w.localClient(1, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A second loopback listener in front of the client's proxy, counting
	// what the browser dials.
	const proxyAddr = "client:3100"
	l, err := w.Legacy.Listen(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	lis := &countingListener{Listener: l}
	srv := &http.Server{Handler: c.Proxy}
	go srv.Serve(lis)
	defer srv.Close()
	br := browser.New(browser.Config{
		Clock:      w.Clock,
		Legacy:     w.Legacy,
		LegacyHost: "client",
		Resolver:   w.Resolver("client"),
		Extension:  c.Extension,
		ProxyAddr:  proxyAddr,
		Intercept:  NewSerialDelay(w.Clock, interceptCost, interceptJitter, 1).Wait,
	})
	defer br.Close()

	for page := range 3 {
		pl, err := br.LoadPage(context.Background(), "http://scionfs.local/index.html")
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Resources) != pageResources || pl.Indicator != browser.AllSCION {
			t.Fatalf("page %d: %d subresources, indicator %v", page, len(pl.Resources), pl.Indicator)
		}
	}
	if n := lis.accepted.Load(); n > 6 {
		t.Errorf("the proxy accepted %d connections over three page loads, want at most the browser's 6", n)
	}
}
