// Package experiments assembles complete end-to-end scenarios — the local
// setup of Figure 2 and the distributed setup of Figure 4 — and runs the
// paper's evaluation: the page-load-time experiments of Figures 3, 5, and 6
// and the layer-decision matrix of Table 1.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/dnssim"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/squic"
	"tango/internal/testbed"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// World is a fully assembled simulation: the testbed's SCION world (control
// and data plane on a shared virtual clock) plus the legacy IP network, DNS
// and the squic trust pool.
type World struct {
	*testbed.World
	Legacy *netsim.StreamNetwork
	Zone   *dnssim.Zone
	Pool   *squic.CertPool

	dnsServer *dnssim.Server
	stop      func()
	seed      int64
}

// NewWorld builds a world over the default topology (optionally customized)
// with beaconing complete and the virtual clock auto-advancing.
func NewWorld(seed int64, customize func(*topology.Topology)) (*World, error) {
	clock := testbed.NewClock()
	tb, err := testbed.NewWorld(clock, customize, seed)
	if err != nil {
		return nil, err
	}
	w := &World{
		World:  tb,
		Legacy: netsim.NewStreamNetwork(clock),
		Zone:   dnssim.NewZone(),
		Pool:   squic.NewCertPool(),
		seed:   seed,
	}
	w.dnsServer, err = dnssim.Serve(w.Legacy, "dns:53", w.Zone)
	if err != nil {
		return nil, err
	}
	w.stop = testbed.Advance(clock)
	return w, nil
}

// Close stops the clock advancer and the DNS server.
func (w *World) Close() {
	w.dnsServer.Close()
	w.stop()
}

// PANHost returns a PAN host (stack + combiner + trust pool).
func (w *World) PANHost(ia addr.IA, ip string) *pan.Host {
	return pan.NewHost(w.Stack(ia, ip), w.Combiner, w.Pool)
}

// Resolver returns a DNS stub resolver for a legacy host.
func (w *World) Resolver(fromHost string) *dnssim.Resolver {
	return dnssim.NewResolver(w.Legacy, fromHost, "dns:53", w.Clock)
}

// SerialDelay models a serialized per-request processing stage (the
// extension's single-threaded event loop, the prototype proxy's request
// handling): each caller is served for a jittered interval of virtual time,
// after every caller that arrived before it. The queue is a virtual-time
// ticket, so no lock is held while a caller waits.
type SerialDelay struct {
	clock  netsim.Clock
	base   time.Duration
	jitter time.Duration

	mu        sync.Mutex
	rng       *rand.Rand
	busyUntil time.Time // when the last queued caller's service ends
}

// NewSerialDelay creates a stage with base cost ± uniform jitter.
func NewSerialDelay(clock netsim.Clock, base, jitter time.Duration, seed int64) *SerialDelay {
	return &SerialDelay{clock: clock, base: base, jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// Wait blocks for one service interval, serialized with other callers.
func (d *SerialDelay) Wait() {
	if d == nil || d.base == 0 {
		return
	}
	d.mu.Lock()
	cost := d.base
	if d.jitter > 0 {
		cost += time.Duration(d.rng.Int63n(int64(2*d.jitter))) - d.jitter
	}
	if now := d.clock.Now(); d.busyUntil.Before(now) {
		d.busyUntil = now
	}
	d.busyUntil = d.busyUntil.Add(cost)
	until := d.busyUntil
	d.mu.Unlock()
	d.clock.Sleep(until.Sub(d.clock.Now()))
}

// ClientConfig parameterizes a browser+extension+proxy bundle.
type ClientConfig struct {
	// IA and IP locate the client machine in the SCION world.
	IA addr.IA
	IP string
	// LegacyName is the machine's identity on the legacy network.
	LegacyName string
	// InterceptCost and ProxyCost model the prototype's per-request
	// overheads (zero = ideal integration).
	InterceptCost, InterceptJitter time.Duration
	ProxyCost, ProxyJitter         time.Duration
	// Proxy holds the proxy's options: racing, probing, passive telemetry,
	// striping and the initial selector. NewClient fills in the fields the
	// world owns (Host, Legacy, LegacyHost, Resolver, Detector and
	// Processing).
	Proxy proxy.Config
	// Seed drives the overhead jitter so repeated runs differ.
	Seed int64
}

// Client is the browser-side bundle of Figure 1: browser, extension, strict
// store, and SKIP proxy, wired over a loopback leg of the legacy network.
type Client struct {
	Browser   *browser.Browser
	Extension *browser.Extension
	Proxy     *proxy.Proxy
	Store     *sciondetect.StrictStore
	Detector  *sciondetect.Detector

	proxyServer *webserver.IPServer // the proxy's loopback listener
}

// Close releases everything the client holds in its world: the browser's
// idle connections, the proxy's loopback listener, and then the proxy
// itself, which closes its pooled connections and its dialer and stops
// the monitor it owns (a monitor passed in through ClientConfig.Proxy.Monitor
// is shared, and stays running). A world that serves many short-lived users
// must close each one, or every user leaves goroutines and connections
// behind.
func (c *Client) Close() {
	c.Browser.Close()
	c.proxyServer.Close()
	c.Proxy.Close()
}

// clientPorts allocates distinct loopback ports per client.
var clientPorts struct {
	sync.Mutex
	next int
}

// NewClient assembles a client in the world.
func (w *World) NewClient(cfg ClientConfig) (*Client, error) {
	resolver := w.Resolver(cfg.LegacyName)
	detector := sciondetect.NewDetector(resolver, w.Clock)
	host := w.PANHost(cfg.IA, cfg.IP)
	store := sciondetect.NewStrictStore(w.Clock)

	pc := cfg.Proxy
	pc.Host, pc.Legacy, pc.LegacyHost = host, w.Legacy, cfg.LegacyName
	pc.Resolver, pc.Detector = resolver, detector
	pc.Processing = NewSerialDelay(w.Clock, cfg.ProxyCost, cfg.ProxyJitter, w.seed+cfg.Seed*7919+101).Wait
	p := proxy.New(pc)

	// Loopback: zero-latency same-machine route, unique port per client.
	w.Legacy.SetRoute(cfg.LegacyName, cfg.LegacyName, netsim.RouteProps{})
	clientPorts.Lock()
	clientPorts.next++
	proxyAddr := fmt.Sprintf("%s:%d", cfg.LegacyName, 3128+clientPorts.next)
	clientPorts.Unlock()
	srv, err := webserver.ServeIP(w.Legacy, proxyAddr, p)
	if err != nil {
		return nil, err
	}

	ext := browser.NewExtension(p, store)
	interceptDelay := NewSerialDelay(w.Clock, cfg.InterceptCost, cfg.InterceptJitter, w.seed+cfg.Seed*7919+202)
	br := browser.New(browser.Config{
		Clock:      w.Clock,
		Legacy:     w.Legacy,
		LegacyHost: cfg.LegacyName,
		Resolver:   resolver,
		Extension:  ext,
		ProxyAddr:  proxyAddr,
		Intercept:  interceptDelay.Wait,
	})
	return &Client{Browser: br, Extension: ext, Proxy: p, Store: store, Detector: detector, proxyServer: srv}, nil
}
