package main

import (
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/experiments"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/squic"
	"tango/internal/webserver"
)

// Page shape and prototype overheads of the paper's experiments (the same
// calibration internal/experiments uses for Figures 3, 5 and 6).
const (
	pageResources   = 12
	resourceSize    = 4 << 10
	interceptCost   = 1 * time.Millisecond
	interceptJitter = 300 * time.Microsecond
	proxyCost       = 6500 * time.Microsecond
	proxyJitter     = 1500 * time.Microsecond
)

// env is one simulated world plus everything the benchmark stood up in it:
// the content every origin serves (for end-to-end checks), the servers to
// close at teardown, and the optional tracer.
type env struct {
	w      *experiments.World
	tr     *tracer // nil in untraced runs
	faults *faultLog

	mu      sync.RWMutex
	content map[string][]byte // "host/path" → body every origin serves
	// corrupt, when set, lets a test flip a byte of one origin response.
	corrupt func(r *http.Request) bool

	conns    connTracker
	closers  []func()
	monitors []*pan.Monitor
	nextPort int
}

func newEnv(seed int64, tr *tracer) (*env, error) {
	w, err := experiments.NewWorld(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	e := &env{w: w, tr: tr, faults: &faultLog{}, content: make(map[string][]byte)}
	e.conns.conns = make(map[net.Conn]*connInfo)
	if tr != nil {
		tr.attach(e)
	}
	return e, nil
}

// lookup returns the body an origin serves for host/path.
func (e *env) lookup(host, path string) ([]byte, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	b, ok := e.content[host+path]
	return b, ok
}

func (e *env) register(host, path string, body []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.content[host+path] = body
}

// resourceBody is subresource i's generated content.
func resourceBody(i int) []byte {
	body := make([]byte, resourceSize)
	for j := range body {
		body[j] = byte('a' + (i+j)%26)
	}
	return body
}

// resourceURLs spreads n subresource URLs round-robin over origins.
func resourceURLs(n int, origins ...string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://%s/static/res-%d", origins[i%len(origins)], i)
	}
	return out
}

// newSite builds a static site holding the page resources, registering every
// body under each host name the site answers to.
func (e *env) newSite(hosts ...string) *webserver.Site {
	site := webserver.NewSite()
	for i := 0; i < pageResources; i++ {
		path := fmt.Sprintf("/static/res-%d", i)
		body := resourceBody(i)
		site.Add(path, []string{"application/javascript", "text/css", "image/png"}[i%3], body)
		for _, h := range hosts {
			e.register(h, path, body)
		}
	}
	return site
}

// addPage adds an HTML page referencing urls to site.
func (e *env) addPage(site *webserver.Site, host, path, title string, urls []string) {
	html := webserver.BuildPage(title, urls)
	site.AddPage(path, html)
	e.register(host, path, []byte(html))
}

// serveIP serves h on the legacy network. It is webserver.ServeIP plus a
// connection tracker, so teardown can close the idle keep-alive connections
// a finished user leaves behind.
func (e *env) serveIP(hostport string, h http.Handler) error {
	lis, err := e.w.Legacy.Listen(hostport)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ConnState: e.conns.track}
	go srv.Serve(lis)
	e.closers = append(e.closers, func() { srv.Close() })
	return nil
}

// serveSCION serves h over SCION in ia and publishes the hostnames' identity
// and TXT records.
func (e *env) serveSCION(ia addr.IA, ip string, h http.Handler, strictMaxAge time.Duration, hostnames ...string) error {
	id, err := squic.NewIdentity(hostnames[0])
	if err != nil {
		return err
	}
	srv, err := webserver.ServeSCION(e.w.PANHost(ia, ip), 80, id, h, strictMaxAge)
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { srv.Close() })
	if tel := srv.Telemetry(); tel != nil {
		e.monitors = append(e.monitors, tel.Monitor())
	}
	a := addr.Addr{IA: ia, Host: netip.MustParseAddr(ip)}
	for _, name := range hostnames {
		e.w.Pool.Add(name, id.Public())
		e.w.Zone.AddTXT(name, time.Hour, sciondetect.FormatTXT(a))
	}
	return nil
}

// origin wraps an origin handler: the test-only corruption hook and, when
// traced, the webserver layer's counters.
func (e *env) origin(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e.corrupt != nil && e.corrupt(r) {
			w = &corruptWriter{ResponseWriter: w}
		}
		if e.tr != nil {
			e.tr.serveOrigin(h, w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// corruptWriter flips the first body byte it writes.
type corruptWriter struct {
	http.ResponseWriter
	done bool
}

func (c *corruptWriter) Write(p []byte) (int, error) {
	if !c.done && len(p) > 0 {
		c.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 0xff
		return c.ResponseWriter.Write(q)
	}
	return c.ResponseWriter.Write(p)
}

// close stops every server the benchmark started, newest first.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// clientConfig describes one browser + extension + SKIP proxy bundle.
type clientConfig struct {
	ia       addr.IA
	ip, name string
	// costs applies the prototype's interception and proxy overheads.
	costs        bool
	selector     pan.Selector
	raceWidth    int
	monitor      *pan.Monitor
	adaptiveRace bool
	passive      bool
	stripe       *pan.StripeOptions
	seed         int64
}

// client is one simulated user's machine, assembled from the public
// constructors exactly as experiments.World.NewClient does, except that the
// proxy's loopback server is the benchmark's own, so its handler can be
// checked and traced and its connections closed when the user leaves.
type client struct {
	e   *env
	cfg clientConfig
	br  *browser.Browser
	ext *browser.Extension
	p   *proxy.Proxy
	srv *http.Server
	cur atomic.Pointer[opRec] // page load in progress
}

func (e *env) newClient(cfg clientConfig) (*client, error) {
	w := e.w
	c := &client{e: e, cfg: cfg}
	resolver := w.Resolver(cfg.name)
	detector := sciondetect.NewDetector(resolver, w.Clock)
	store := sciondetect.NewStrictStore(w.Clock)
	selector := cfg.selector
	if selector == nil {
		selector = pan.NewPolicySelector(nil, nil)
	}
	var processing, intercept func()
	if cfg.costs {
		processing = experiments.NewSerialDelay(w.Clock, proxyCost, proxyJitter, cfg.seed*7919+101).Wait
		intercept = experiments.NewSerialDelay(w.Clock, interceptCost, interceptJitter, cfg.seed*7919+202).Wait
	}
	if e.tr != nil {
		selector = e.tr.selector(c, selector)
		processing = e.tr.hook(c, spanProcessing, processing)
		intercept = e.tr.hook(c, spanIntercept, intercept)
	}
	c.p = proxy.New(proxy.Config{
		Host:         w.PANHost(cfg.ia, cfg.ip),
		Selector:     selector,
		Legacy:       w.Legacy,
		LegacyHost:   cfg.name,
		Resolver:     resolver,
		Detector:     detector,
		Processing:   processing,
		RaceWidth:    cfg.raceWidth,
		Monitor:      cfg.monitor,
		AdaptiveRace: cfg.adaptiveRace,
		Passive:      cfg.passive,
		Stripe:       cfg.stripe,
	})

	// Loopback leg: zero-latency same-machine route, a fresh port per user.
	w.Legacy.SetRoute(cfg.name, cfg.name, netsim.RouteProps{})
	e.nextPort++
	proxyAddr := fmt.Sprintf("%s:%d", cfg.name, 3128+e.nextPort)
	lis, err := w.Legacy.Listen(proxyAddr)
	if err != nil {
		c.p.Close()
		return nil, err
	}
	c.srv = &http.Server{Handler: c.proxyLeg()}
	go c.srv.Serve(lis)

	c.ext = browser.NewExtension(c.p, store)
	c.br = browser.New(browser.Config{
		Clock:      w.Clock,
		Legacy:     w.Legacy,
		LegacyHost: cfg.name,
		Resolver:   resolver,
		Extension:  c.ext,
		ProxyAddr:  proxyAddr,
		Intercept:  intercept,
	})
	return c, nil
}

// close releases the user's proxy, its loopback server, and the idle
// keep-alive connections its browser left open at the origins.
func (c *client) close() {
	if c.e.tr != nil {
		c.e.tr.clientClosed(c)
	}
	c.p.Close()
	c.srv.Close()
	c.e.conns.closeIdleFrom(c.cfg.name)
}

// proxyLeg is the handler on the loopback leg: the proxy itself, with every
// response body compared against the content its origin serves.
func (c *client) proxyLeg() http.Handler {
	var h http.Handler = c.p
	if c.e.tr != nil {
		h = c.e.tr.proxyHandler(c, h)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		want, ok := c.e.lookup(r.URL.Hostname(), r.URL.Path)
		if !ok {
			c.fault("proxy: request for unknown content " + r.URL.String())
		}
		vw := &verifyWriter{ResponseWriter: w, want: want}
		h.ServeHTTP(vw, r)
		if ok && vw.status() == http.StatusOK && (vw.bad || vw.off != len(want)) {
			c.fault(fmt.Sprintf("proxy: body of %s differs from the origin's content", r.URL))
		}
	})
}

// fault charges a check failure to the user's current op.
func (c *client) fault(msg string) {
	if op := c.cur.Load(); op != nil {
		op.fail(msg)
		return
	}
	c.e.faults.add(msg)
}

// verifyWriter compares a response body with the expected bytes as it is
// written.
type verifyWriter struct {
	http.ResponseWriter
	want []byte
	off  int
	bad  bool
	code int
}

func (v *verifyWriter) WriteHeader(code int) {
	if v.code == 0 {
		v.code = code
	}
	v.ResponseWriter.WriteHeader(code)
}

func (v *verifyWriter) Write(p []byte) (int, error) {
	if v.code == 0 {
		v.code = http.StatusOK
	}
	end := v.off + len(p)
	if end > len(v.want) || string(v.want[v.off:end]) != string(p) {
		v.bad = true
	}
	v.off = end
	return v.ResponseWriter.Write(p)
}

func (v *verifyWriter) status() int {
	if v.code == 0 {
		return http.StatusOK
	}
	return v.code
}

// faultLog collects check failures that no op owns.
type faultLog struct {
	mu   sync.Mutex
	msgs []string
}

func (f *faultLog) add(msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.msgs = append(f.msgs, msg)
}

func (f *faultLog) list() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.msgs...)
}

// connTracker remembers the legacy server connections in arrival order so
// that a departed user's idle keep-alives can be closed deterministically.
type connTracker struct {
	mu    sync.Mutex
	seq   uint64
	conns map[net.Conn]*connInfo
}

type connInfo struct {
	seq   uint64
	state http.ConnState
}

func (t *connTracker) track(c net.Conn, s http.ConnState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch s {
	case http.StateNew:
		t.seq++
		t.conns[c] = &connInfo{seq: t.seq, state: s}
	case http.StateClosed, http.StateHijacked:
		delete(t.conns, c)
	default:
		if ci := t.conns[c]; ci != nil {
			ci.state = s
		}
	}
}

// closeIdleFrom closes the idle connections dialed from host.
func (t *connTracker) closeIdleFrom(host string) {
	t.mu.Lock()
	var idle []net.Conn
	for c, ci := range t.conns {
		if ci.state != http.StateIdle {
			continue
		}
		if h, _, err := net.SplitHostPort(c.RemoteAddr().String()); err == nil && h == host {
			idle = append(idle, c)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return t.conns[idle[i]].seq < t.conns[idle[j]].seq })
	t.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
