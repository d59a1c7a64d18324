package webserver_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httputil"
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/shttp"
	"tango/internal/squic"
	"tango/internal/testbed"
	"tango/internal/topology"
	"tango/internal/webserver"
)

func TestSiteServesContent(t *testing.T) {
	site := webserver.NewSite()
	site.Add("/a.js", "application/javascript", []byte("console.log(1)"))
	site.AddPage("/index.html", "<html></html>")

	req, _ := http.NewRequest(http.MethodGet, "http://x/a.js", nil)
	rec := newRecorder()
	site.ServeHTTP(rec, req)
	if rec.status != 200 || rec.header.Get("Content-Type") != "application/javascript" {
		t.Fatalf("status %d headers %v", rec.status, rec.header)
	}
	if rec.body.String() != "console.log(1)" {
		t.Fatalf("body %q", rec.body.String())
	}

	req, _ = http.NewRequest(http.MethodGet, "http://x/missing", nil)
	rec = newRecorder()
	site.ServeHTTP(rec, req)
	if rec.status != 404 {
		t.Fatalf("missing path status %d", rec.status)
	}
	if got := site.Paths(); len(got) != 2 || got[0] != "/a.js" {
		t.Fatalf("paths %v", got)
	}
}

func TestSiteHead(t *testing.T) {
	site := webserver.NewSite()
	site.Add("/x", "text/plain", []byte("body"))
	req, _ := http.NewRequest(http.MethodHead, "http://x/x", nil)
	rec := newRecorder()
	site.ServeHTTP(rec, req)
	if rec.status != 200 || rec.body.Len() != 0 {
		t.Fatalf("HEAD status %d body %q", rec.status, rec.body.String())
	}
}

func TestBuildPageParsesBack(t *testing.T) {
	urls := []string{"/static/a.js", "/static/b.css", "http://cdn.test/c.png", "/static/d.js"}
	html := webserver.BuildPage("t", urls)
	base, _ := url.Parse("http://origin.test/index.html")
	got := browser.ExtractResourceURLs(base, html)
	if len(got) != len(urls) {
		t.Fatalf("extracted %d resources from built page, want %d: %v", len(got), len(urls), got)
	}
	want := map[string]bool{
		"http://origin.test/static/a.js":  true,
		"http://origin.test/static/b.css": true,
		"http://cdn.test/c.png":           true,
		"http://origin.test/static/d.js":  true,
	}
	for _, u := range got {
		if !want[u] {
			t.Errorf("unexpected resource %q", u)
		}
	}
}

func TestStandardSite(t *testing.T) {
	site := webserver.StandardSite(9, 128)
	paths := site.Paths()
	if len(paths) != 10 { // 9 resources + index
		t.Fatalf("paths %v", paths)
	}
	req, _ := http.NewRequest(http.MethodGet, "http://x/static/res-0", nil)
	rec := newRecorder()
	site.ServeHTTP(rec, req)
	if rec.body.Len() != 128 {
		t.Fatalf("resource size %d", rec.body.Len())
	}
}

func TestServeIPRoundTrip(t *testing.T) {
	legacy := netsim.NewStreamNetwork(testbed.AutoClock(t))
	legacy.SetDefaultRoute(netsim.RouteProps{Latency: time.Millisecond})
	site := webserver.NewSite()
	site.Add("/hello", "text/plain", []byte("over ip"))
	srv, err := webserver.ServeIP(legacy, "192.0.2.1:80", site)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := legacy.Dial(context.Background(), "client", "192.0.2.1:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "200 OK") || !strings.Contains(string(resp), "over ip") {
		t.Fatalf("response %q", resp)
	}
}

func TestServeSCIONWithStrictHeader(t *testing.T) {
	w := testbed.New(t, testbed.AutoClock(t), nil, 1)
	pool := squic.NewCertPool()
	host := pan.NewHost(w.Stack(topology.AS211, "10.0.0.2"), w.Combiner, pool)
	id, err := squic.NewIdentity("srv.test")
	if err != nil {
		t.Fatal(err)
	}
	pool.AddIdentity(id)
	site := webserver.NewSite()
	site.Add("/x", "text/plain", []byte("scion content"))
	srv, err := webserver.ServeSCION(host, 443, id, site, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := pan.NewHost(w.Stack(topology.AS111, "10.0.0.1"), w.Combiner, pool)
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	dialer := client.NewDialer(pan.DialOptions{ServerName: "srv.test"})
	defer dialer.Close()
	tr := shttp.NewTransport(func(ctx context.Context, authority string) (*squic.Conn, error) {
		conn, _, err := dialer.Dial(ctx, remote, "")
		return conn, err
	})
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://srv.test/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "scion content" {
		t.Fatalf("body %q", body)
	}
	age, ok := shttp.ParseStrictSCION(resp.Header.Get(shttp.HeaderStrictSCION))
	if !ok || age != 30*time.Minute {
		t.Fatalf("strict header %q", resp.Header.Get(shttp.HeaderStrictSCION))
	}
}

func TestReverseProxyPreservesHost(t *testing.T) {
	legacy := netsim.NewStreamNetwork(testbed.AutoClock(t))
	legacy.SetDefaultRoute(netsim.RouteProps{Latency: time.Millisecond})

	// Origin that echoes the Host header.
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "host="+r.Host)
	})
	srv, err := webserver.ServeIP(legacy, "10.1.1.1:80", origin)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rp := webserver.NewReverseProxy(legacy, "rp", "10.1.1.1:80")
	rpSrv, err := webserver.ServeIP(legacy, "10.2.2.2:80", rp)
	if err != nil {
		t.Fatal(err)
	}
	defer rpSrv.Close()

	conn, err := legacy.Dial(context.Background(), "client", "10.2.2.2:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: www.site.example\r\nConnection: close\r\n\r\n")
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "host=www.site.example") {
		t.Fatalf("reverse proxy lost Host header: %q", resp)
	}
}

// TestReverseProxyUsesRelayPool: the reverse proxy copies bodies through
// the shared relay buffers instead of allocating a buffer per response.
func TestReverseProxyUsesRelayPool(t *testing.T) {
	legacy := netsim.NewStreamNetwork(testbed.NewClock())
	rp, ok := webserver.NewReverseProxy(legacy, "rp", "10.1.1.1:80").(*httputil.ReverseProxy)
	if !ok || rp.BufferPool != (shttp.RelayBufferPool{}) {
		t.Fatalf("reverse proxy %T does not copy through shttp.RelayBufferPool", rp)
	}
}

// recorder is a minimal ResponseWriter (httptest depends on net, which is
// fine, but a local one keeps the test self-contained).
type recorder struct {
	header http.Header
	status int
	body   strings.Builder
}

func newRecorder() *recorder { return &recorder{header: make(http.Header), status: 200} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(p []byte) (int, error) {
	return r.body.Write(p)
}
