// Package webserver provides the server-side pieces of the paper's setup:
// static-content file servers reachable over legacy TCP/IP and/or over
// SCION (paper Figures 2 and 4), a page builder producing documents with
// subresources, and the SCION reverse proxy that "adds SCION support to web
// servers" fronting IP-only origins (paper §5.1).
package webserver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/shttp"
	"tango/internal/squic"
)

// Resource is one piece of static content.
type Resource struct {
	ContentType string
	Body        []byte
}

// Site is an in-memory static site.
type Site struct {
	mu        sync.RWMutex
	resources map[string]Resource
}

// NewSite creates an empty site.
func NewSite() *Site {
	return &Site{resources: make(map[string]Resource)}
}

// Add registers content at a path (must start with "/").
func (s *Site) Add(path, contentType string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources[path] = Resource{ContentType: contentType, Body: body}
}

// AddPage registers an HTML document.
func (s *Site) AddPage(path, html string) {
	s.Add(path, "text/html; charset=utf-8", []byte(html))
}

// Paths returns the registered paths, sorted.
func (s *Site) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.resources))
	for p := range s.resources {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP implements http.Handler.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	res, ok := s.resources[r.URL.Path]
	s.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", res.ContentType)
	// ServeContent adds byte-range support (Accept-Ranges / 206 Partial
	// Content), which the striped client relies on to pull one resource as
	// concurrent segments over disjoint paths. The zero modtime suppresses
	// Last-Modified; the pre-set Content-Type skips sniffing.
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(res.Body))
}

// BuildPage produces an HTML document referencing the given subresource
// URLs with the tags a browser fetches automatically.
func BuildPage(title string, resourceURLs []string) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "  <title>%s</title>\n", title)
	for i, u := range resourceURLs {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "  <script src=%q></script>\n", u)
		case 1:
			fmt.Fprintf(&b, "  <link rel=\"stylesheet\" href=%q>\n", u)
		default:
			// img handled in body below; emit nothing here.
		}
	}
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "  <h1>%s</h1>\n", title)
	for i, u := range resourceURLs {
		if i%3 == 2 {
			fmt.Fprintf(&b, "  <img src=%q>\n", u)
		}
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// StandardSite builds a site with one page at /index.html referencing n
// same-origin subresources of the given size, mimicking the static sites of
// the paper's experiments.
func StandardSite(n, resourceSize int) *Site {
	site := NewSite()
	urls := make([]string, n)
	for i := range urls {
		path := fmt.Sprintf("/static/res-%d", i)
		urls[i] = path
		body := make([]byte, resourceSize)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		ct := "application/javascript"
		switch i % 3 {
		case 1:
			ct = "text/css"
		case 2:
			ct = "image/png"
		}
		site.Add(path, ct, body)
	}
	site.AddPage("/index.html", BuildPage("static test site", urls))
	return site
}

// IPServer is a static site served over the legacy network.
type IPServer struct {
	lis net.Listener
	srv *http.Server
}

// ServeIP starts an HTTP server on the legacy network.
func ServeIP(n *netsim.StreamNetwork, hostport string, handler http.Handler) (*IPServer, error) {
	lis, err := n.Listen(hostport)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(lis)
	return &IPServer{lis: lis, srv: srv}, nil
}

// Close stops the server.
func (s *IPServer) Close() error { return s.lis.Close() }

// SCIONServer is a static site served over SCION via squic.
type SCIONServer struct {
	lis *squic.Listener
	tel *pan.ServerTelemetry
}

// SCIONOptions tunes ServeSCIONOptions beyond the common-case defaults.
type SCIONOptions struct {
	// StrictMaxAge, when positive, advertises Strict-SCION on responses.
	StrictMaxAge time.Duration
	// Mirror disables reverse-path steering (the seed behavior): replies
	// ride the reverse of whatever path each client last used, and no
	// server-side telemetry is collected.
	Mirror bool
	// Telemetry attaches an existing server telemetry plane — share one
	// across listeners, or pool it with the host's dialer-side monitor. Nil
	// (with Mirror unset) creates a plane with its own passive monitor.
	Telemetry *pan.ServerTelemetry
}

// ServeSCION starts an HTTP-over-squic server on a PAN host, optionally
// advertising Strict-SCION. Replies are steered: the server's own telemetry
// plane observes every connection's ack RTTs (free path health from serving
// traffic) and picks the monitor-ranked reverse path, mirroring the client's
// choice only while telemetry is stale or empty. Use ServeSCIONOptions for
// mirror-only mode or a shared telemetry plane.
func ServeSCION(h *pan.Host, port uint16, identity *squic.Identity, handler http.Handler, strictMaxAge time.Duration) (*SCIONServer, error) {
	return ServeSCIONOptions(h, port, identity, handler, SCIONOptions{StrictMaxAge: strictMaxAge})
}

// ServeSCIONOptions is ServeSCION with explicit options.
func ServeSCIONOptions(h *pan.Host, port uint16, identity *squic.Identity, handler http.Handler, opts SCIONOptions) (*SCIONServer, error) {
	if opts.StrictMaxAge > 0 {
		handler = shttp.StrictSCION(handler, opts.StrictMaxAge)
	}
	lis, err := h.Listen(port, identity)
	if err != nil {
		return nil, err
	}
	var tel *pan.ServerTelemetry
	if !opts.Mirror {
		tel = opts.Telemetry
		if tel == nil {
			tel = h.NewServerTelemetry(nil)
		}
		tel.Attach(lis)
	}
	go shttp.Serve(lis, handler)
	return &SCIONServer{lis: lis, tel: tel}, nil
}

// Telemetry returns the server's telemetry plane (nil in mirror mode) — the
// reverse-path steering decisions and the passive monitor behind them.
func (s *SCIONServer) Telemetry() *pan.ServerTelemetry { return s.tel }

// Close stops the server.
func (s *SCIONServer) Close() error { return s.lis.Close() }

// NewReverseProxy builds the paper's "simple reverse proxy to add SCION
// support to web servers": it terminates SCION/QUIC and forwards requests to
// an IP-only origin over the legacy network (Figure 4's "SCION
// reverse-proxy" box). The proxy host's legacy identity is fromHost.
func NewReverseProxy(legacy *netsim.StreamNetwork, fromHost, originHostPort string) http.Handler {
	target := &url.URL{Scheme: "http", Host: originHostPort}
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.Transport = &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return legacy.Dial(ctx, fromHost, originHostPort)
		},
		DisableCompression: true,
	}
	rp.BufferPool = shttp.RelayBufferPool{}
	// Preserve the original Host header so origins with virtual hosting
	// (and our page URLs) keep working.
	director := rp.Director
	rp.Director = func(r *http.Request) {
		host := r.Host
		director(r)
		r.Host = host
	}
	return rp
}
