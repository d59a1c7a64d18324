package shttp_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/pathdb"
	"tango/internal/shttp"
	"tango/internal/snet"
	"tango/internal/squic"
	"tango/internal/topology"
)

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	t1     = t0.Add(24 * time.Hour)
	during = t0.Add(time.Hour)
)

type world struct {
	clock *netsim.SimClock
	comb  *pathdb.Combiner
	dw    *dataplane.World
	disp  map[addr.IA]*snet.Dispatcher
}

func newWorld(t testing.TB) *world {
	t.Helper()
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	if err := beacon.NewService(topo, infra, reg, 12*time.Hour).Run(t0); err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewSimClock(during)
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	disp := make(map[addr.IA]*snet.Dispatcher)
	for _, as := range topo.ASes() {
		disp[as.IA] = snet.NewDispatcher(dw.Router(as.IA), clock)
	}
	t.Cleanup(clock.AutoAdvance(150 * time.Microsecond))
	return &world{clock: clock, comb: pathdb.NewCombiner(reg), dw: dw, disp: disp}
}

func (w *world) socket(t testing.TB, ia addr.IA, ip string, port uint16) *snet.Conn {
	t.Helper()
	c, err := w.disp[ia].Host(netip.MustParseAddr(ip), w.dw.Router(ia)).Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startServer serves handler over squic at 211 and returns a ready transport
// dialing it.
func startServer(t testing.TB, w *world, handler http.Handler) *shttp.Transport {
	t.Helper()
	id, err := squic.NewIdentity("www.test.scion")
	if err != nil {
		t.Fatal(err)
	}
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	sock := w.socket(t, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(sock, &squic.Config{Clock: w.clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go shttp.Serve(lis, handler)

	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	tr := shttp.NewTransport(func(ctx context.Context, authority string) (*squic.Conn, error) {
		paths := w.comb.Paths(topology.AS111, topology.AS211, during)
		if len(paths) == 0 {
			return nil, fmt.Errorf("no paths")
		}
		sock := w.socket(t, topology.AS111, "10.0.0.1", 0)
		return squic.Dial(sock, remote, paths[0], "www.test.scion", &squic.Config{Clock: w.clock, Pool: pool})
	})
	t.Cleanup(tr.CloseIdleConnections)
	return tr
}

func TestHTTPOverSQUIC(t *testing.T) {
	w := newWorld(t)
	tr := startServer(t, w, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(rw, "hello %s from %s", r.URL.Path, r.Host)
	}))
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://www.test.scion/index.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello /index.html from www.test.scion" {
		t.Fatalf("body %q", body)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPConnReuse(t *testing.T) {
	w := newWorld(t)
	var dials atomic.Int32
	id, _ := squic.NewIdentity("www.test.scion")
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	sock := w.socket(t, topology.AS211, "10.0.0.2", 443)
	lis, err := squic.Listen(sock, &squic.Config{Clock: w.clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go shttp.Serve(lis, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, "ok")
	}))
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	tr := shttp.NewTransport(func(ctx context.Context, authority string) (*squic.Conn, error) {
		dials.Add(1)
		paths := w.comb.Paths(topology.AS111, topology.AS211, during)
		sock := w.socket(t, topology.AS111, "10.0.0.1", 0)
		return squic.Dial(sock, remote, paths[0], "www.test.scion", &squic.Config{Clock: w.clock, Pool: pool})
	})
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://www.test.scion/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dialed %d squic connections for 5 requests, want 1", got)
	}
}

func TestHTTPLargeResponse(t *testing.T) {
	w := newWorld(t)
	payload := strings.Repeat("0123456789abcdef", 16<<10) // 256 KiB
	tr := startServer(t, w, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, payload)
	}))
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://www.test.scion/big")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != payload {
		t.Fatalf("body corrupted: %d bytes, want %d", len(body), len(payload))
	}
}

func TestHTTPPost(t *testing.T) {
	w := newWorld(t)
	tr := startServer(t, w, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(rw, "got %d bytes", len(body))
	}))
	client := &http.Client{Transport: tr}
	resp, err := client.Post("http://www.test.scion/upload", "application/octet-stream",
		strings.NewReader(strings.Repeat("x", 10000)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "got 10000 bytes" {
		t.Fatalf("body %q", body)
	}
}

func TestStrictSCIONHeader(t *testing.T) {
	w := newWorld(t)
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) { io.WriteString(rw, "ok") })
	tr := startServer(t, w, shttp.StrictSCION(inner, time.Hour))
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://www.test.scion/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := resp.Header.Get(shttp.HeaderStrictSCION)
	if got != "max-age=3600" {
		t.Fatalf("header %q", got)
	}
	age, ok := shttp.ParseStrictSCION(got)
	if !ok || age != time.Hour {
		t.Fatalf("parsed %v %v", age, ok)
	}
}

func TestParseStrictSCION(t *testing.T) {
	cases := []struct {
		in  string
		age time.Duration
		ok  bool
	}{
		{"max-age=3600", time.Hour, true},
		{"max-age=0", 0, true},
		{"MAX-AGE=60; includeSubdomains", time.Minute, true},
		{"includeSubdomains; max-age=60", time.Minute, true},
		{"", 0, false},
		{"max-age=", 0, false},
		{"max-age=-5", 0, false},
		{"maxage=60", 0, false},
	}
	for _, c := range cases {
		age, ok := shttp.ParseStrictSCION(c.in)
		if ok != c.ok || age != c.age {
			t.Errorf("ParseStrictSCION(%q) = %v, %v; want %v, %v", c.in, age, ok, c.age, c.ok)
		}
	}
}

func TestHTTPRequestLatencyIsPathRTT(t *testing.T) {
	w := newWorld(t)
	tr := startServer(t, w, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.WriteString(rw, "timed")
	}))
	client := &http.Client{Transport: tr}
	// Warm up: handshake + first request.
	resp, err := client.Get("http://www.test.scion/warm")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	paths := w.comb.Paths(topology.AS111, topology.AS211, during)
	rtt := 2 * paths[0].Meta.Latency
	start := w.clock.Now()
	resp, err = client.Get("http://www.test.scion/timed")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := w.clock.Since(start)
	// One RTT for request/response on the warm stream (plus µs noise).
	if elapsed < rtt || elapsed > rtt+5*time.Millisecond {
		t.Fatalf("request took %v, want ~%v", elapsed, rtt)
	}
}
