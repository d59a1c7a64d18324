package browser

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"time"

	"tango/internal/dnssim"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/ppl"
	"tango/internal/proxy"
	"tango/internal/sciondetect"
	"tango/internal/shttp"
)

// Indicator is the browser-UI signal of paper §4.2: "An icon in the
// browser's UI indicates to the user whether all, some, or no parts of the
// website were fetched over SCION."
type Indicator int

const (
	// NoSCION: every resource came over legacy IP.
	NoSCION Indicator = iota
	// SomeSCION: a mix of SCION and IP.
	SomeSCION
	// AllSCION: every loaded resource came over SCION.
	AllSCION
)

// String implements fmt.Stringer.
func (i Indicator) String() string {
	switch i {
	case AllSCION:
		return "all-scion"
	case SomeSCION:
		return "some-scion"
	default:
		return "no-scion"
	}
}

// ResourceResult records one resource fetch.
type ResourceResult struct {
	URL       string
	Status    int
	Err       string
	Via       proxy.Via
	Compliant bool
	Blocked   bool // blocked by strict mode before any request was sent
	Bytes     int64
}

// PageLoad is the outcome of loading one page.
type PageLoad struct {
	URL string
	// PLT is the page load time: first request start to last resource done.
	PLT       time.Duration
	Main      ResourceResult
	Resources []ResourceResult
	Indicator Indicator
	// Compliant is false if any SCION-loaded resource used a
	// non-policy-compliant path (the paper surfaces this via the same
	// indicator).
	Compliant bool
	// Blocked counts strict-mode-blocked resources.
	Blocked int
}

// Extension is the WebExtensions-side logic (paper §5.1): it configures the
// proxy from user preferences, decides strict mode per request, blocks
// non-compliant strict requests, and ingests Strict-SCION response pins.
type Extension struct {
	proxy *proxy.Proxy
	store *sciondetect.StrictStore

	mu          sync.Mutex
	pol         *ppl.Policy
	fence       *policy.Geofence
	strictHosts map[string]bool // user-enabled strict mode per host
	strictAll   bool
}

// NewExtension wires the extension to its proxy and pin store.
func NewExtension(p *proxy.Proxy, store *sciondetect.StrictStore) *Extension {
	return &Extension{proxy: p, store: store, strictHosts: make(map[string]bool)}
}

// SetGeofence applies the user's geofence ("the extension... configures the
// proxy component according to the user's preferences"): the active policy
// and geofence are composed into a fresh PolicySelector installed on the
// proxy, whose epoch bump re-selects every pooled connection.
func (e *Extension) SetGeofence(g *policy.Geofence) {
	// Compose and install under one lock so concurrent setters cannot
	// install a stale composition last.
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fence = g
	e.proxy.SetSelector(pan.NewPolicySelector(e.pol, e.fence))
}

// SetPolicy applies a PPL policy, composed with the active geofence.
func (e *Extension) SetPolicy(p *ppl.Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pol = p
	e.proxy.SetSelector(pan.NewPolicySelector(e.pol, e.fence))
}

// SetSelector installs an arbitrary path-selection strategy (latency
// ranking, round-robin load spreading, interactive pinning, ...), bypassing
// the policy/geofence composition.
func (e *Extension) SetSelector(s pan.Selector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pol, e.fence = nil, nil
	e.proxy.SetSelector(s)
}

// EnableStrict turns strict mode on for one host ("the user can selectively
// enable strict mode, e.g., for particularly sensitive websites").
func (e *Extension) EnableStrict(host string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.strictHosts[strings.ToLower(host)] = true
}

// SetStrictAll forces strict mode for every request.
func (e *Extension) SetStrictAll(v bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.strictAll = v
}

// strictFor decides whether a request to host runs in strict mode: user
// preference or an active Strict-SCION pin.
func (e *Extension) strictFor(host string) bool {
	host = strings.ToLower(host)
	e.mu.Lock()
	strict := e.strictAll || e.strictHosts[host]
	e.mu.Unlock()
	if strict {
		return true
	}
	return e.store != nil && e.store.Active(host)
}

// observeResponse ingests Strict-SCION pins from responses.
func (e *Extension) observeResponse(host string, hdr http.Header) {
	if e.store == nil {
		return
	}
	if v := hdr.Get(shttp.HeaderStrictSCION); v != "" {
		if age, ok := shttp.ParseStrictSCION(v); ok {
			e.store.Pin(host, age)
		}
	}
}

// Config assembles a Browser.
type Config struct {
	// Clock measures PLT and paces overheads.
	Clock netsim.Clock
	// Legacy is the IP network; LegacyHost is the browser machine's name.
	Legacy     *netsim.StreamNetwork
	LegacyHost string
	// Resolver resolves A records for direct (no-extension) fetching.
	Resolver *dnssim.Resolver
	// Extension, when non-nil, intercepts requests (Enabled flag below).
	Extension *Extension
	// ProxyAddr is the SKIP proxy's legacy address ("host:port").
	ProxyAddr string
	// Intercept, when set, is invoked per intercepted request and models
	// the WebExtensions request-interception cost (the dominant overhead
	// the paper measures in Figure 3). Implementations typically wait on a
	// serializing queue, like the extension's single event loop.
	Intercept func()
	// MaxConnsPerHost mirrors browser connection limits (default 6).
	MaxConnsPerHost int
}

// Browser is the simulated browser host.
type Browser struct {
	cfg     Config
	enabled bool // extension enabled (BGP/IP-Only disables it)
	direct  *http.Client
	proxied *http.Client
}

// New builds a browser. The extension starts enabled if cfg.Extension is
// set.
func New(cfg Config) *Browser {
	if cfg.MaxConnsPerHost == 0 {
		cfg.MaxConnsPerHost = 6
	}
	b := &Browser{cfg: cfg, enabled: cfg.Extension != nil}

	directTransport := &http.Transport{
		DialContext: func(ctx context.Context, network, authority string) (net.Conn, error) {
			return b.dialLegacy(ctx, authority)
		},
		MaxConnsPerHost:    cfg.MaxConnsPerHost,
		DisableCompression: true,
	}
	b.direct = &http.Client{Transport: directTransport}

	if cfg.Extension != nil {
		proxyURL := &url.URL{Scheme: "http", Host: cfg.ProxyAddr}
		// Every proxied request goes to the one proxy address, so the idle
		// cap equals the connection cap: with net/http's default of 2 idle
		// connections per host, each page after the first would close all
		// but 2 of the connections the last page opened and dial them again,
		// each redial paying a new connection's buffers on both ends.
		proxiedTransport := &http.Transport{
			Proxy: http.ProxyURL(proxyURL),
			DialContext: func(ctx context.Context, network, authority string) (net.Conn, error) {
				// authority is the proxy's address here.
				return cfg.Legacy.Dial(ctx, cfg.LegacyHost, authority)
			},
			MaxConnsPerHost:     cfg.MaxConnsPerHost,
			MaxIdleConnsPerHost: cfg.MaxConnsPerHost,
			DisableCompression:  true,
		}
		b.proxied = &http.Client{Transport: proxiedTransport}
	}
	return b
}

// Close closes the idle keep-alive connections of both transports, direct
// and proxied. A browser that is dropped without Close leaves them (and
// their reader and writer goroutines) open until the peer closes them.
func (b *Browser) Close() {
	b.direct.CloseIdleConnections()
	if b.proxied != nil {
		b.proxied.CloseIdleConnections()
	}
}

// SetExtensionEnabled toggles the extension (the Figure 3 "BGP/IP-Only"
// experiment runs "with the extension disabled, i.e., requests are not
// intercepted by the extension and do not traverse the HTTP proxy").
func (b *Browser) SetExtensionEnabled(v bool) {
	if b.cfg.Extension == nil {
		v = false
	}
	b.enabled = v
}

// dialLegacy resolves and dials an origin directly (extension disabled).
func (b *Browser) dialLegacy(ctx context.Context, authority string) (net.Conn, error) {
	host, port, err := net.SplitHostPort(authority)
	if err != nil {
		host, port = authority, "80"
	}
	if _, err := netip.ParseAddr(host); err != nil {
		addrs, err := b.cfg.Resolver.LookupA(ctx, host)
		if err != nil {
			return nil, fmt.Errorf("browser: resolving %s: %w", host, err)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("browser: no A records for %s", host)
		}
		host = addrs[0].String()
	}
	return b.cfg.Legacy.Dial(ctx, b.cfg.LegacyHost, net.JoinHostPort(host, port))
}

// fetch performs one resource fetch through the active pipeline. When
// wantBody is set the response body is returned (for the main document);
// otherwise it is drained and discarded.
func (b *Browser) fetch(ctx context.Context, rawURL string, wantBody bool) (ResourceResult, []byte) {
	res := ResourceResult{URL: rawURL}
	u, err := url.Parse(rawURL)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	host := u.Hostname()

	client := b.direct
	if b.enabled {
		client = b.proxied
		if f := b.cfg.Intercept; f != nil {
			f()
		}
		ext := b.cfg.Extension
		if ext.strictFor(host) {
			// Strict mode: "it first checks whether the resource is
			// available via a policy-compliant SCION path. If there is such
			// a path, the request is forwarded via the proxy, otherwise the
			// request is blocked." (paper §5.1)
			avail, compliant := ext.proxy.CheckSCION(ctx, host)
			if !avail || !compliant {
				res.Blocked = true
				return res, nil
			}
		}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	resp, err := client.Do(req)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	defer resp.Body.Close()
	var body []byte
	if wantBody {
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			res.Err = err.Error()
			return res, nil
		}
		res.Bytes = int64(len(body))
	} else {
		n, _ := io.Copy(io.Discard, resp.Body)
		res.Bytes = n
	}
	res.Status = resp.StatusCode
	res.Via = proxy.Via(resp.Header.Get(proxy.HeaderVia))
	if res.Via == "" {
		res.Via = proxy.ViaIP // direct fetch
	}
	res.Compliant = resp.Header.Get(proxy.HeaderCompliant) != "false"
	if b.enabled {
		b.cfg.Extension.observeResponse(host, resp.Header)
	}
	return res, body
}

// LoadPage loads the document at rawURL and all its subresources, measuring
// page load time on the browser's clock.
func (b *Browser) LoadPage(ctx context.Context, rawURL string) (*PageLoad, error) {
	clock := b.cfg.Clock
	start := clock.Now()
	pl := &PageLoad{URL: rawURL, Compliant: true}

	// Fetch and parse the main document. A strict-mode block or error of
	// the main document fails the whole load.
	mainRes, html := b.fetch(ctx, rawURL, true)
	pl.Main = mainRes
	if mainRes.Blocked {
		pl.Blocked++
		pl.PLT = clock.Since(start)
		pl.Indicator = NoSCION
		return pl, fmt.Errorf("browser: %s blocked by strict mode", rawURL)
	}
	if mainRes.Err != "" {
		pl.PLT = clock.Since(start)
		return pl, fmt.Errorf("browser: loading %s: %s", rawURL, mainRes.Err)
	}

	base, _ := url.Parse(rawURL)
	subURLs := ExtractResourceURLs(base, string(html))

	results := make([]ResourceResult, len(subURLs))
	var wg sync.WaitGroup
	for i, u := range subURLs {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			results[i], _ = b.fetch(ctx, u, false)
		}(i, u)
	}
	wg.Wait()
	pl.Resources = results
	pl.PLT = clock.Since(start)

	// Indicator: over all loaded (non-blocked) resources.
	scion, ip := 0, 0
	count := func(r ResourceResult) {
		switch {
		case r.Blocked:
			pl.Blocked++
		case r.Err != "":
		case r.Via == proxy.ViaSCION:
			scion++
			if !r.Compliant {
				pl.Compliant = false
			}
		default:
			ip++
		}
	}
	count(pl.Main)
	for _, r := range results {
		count(r)
	}
	switch {
	case scion > 0 && ip == 0:
		pl.Indicator = AllSCION
	case scion > 0:
		pl.Indicator = SomeSCION
	default:
		pl.Indicator = NoSCION
	}
	return pl, nil
}
