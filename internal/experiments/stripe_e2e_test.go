package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/topology"
	"tango/internal/webserver"
)

// stripeBody builds the deterministic large download body (matching the
// webserver's byte-range semantics exactly: byte i is i % 251).
func stripeBody(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i % 251)
	}
	return body
}

// stripeOpts stripes over two paths in 128 KiB segments.
var stripeOpts = &pan.StripeOptions{Width: 2, SegmentSize: 128 << 10, MinStripeBytes: 128 << 10}

// stripeWorld assembles the striping scenario: every inter-ISD core link
// throttled to bwBits (so each single path is capped, while link-disjoint
// paths aggregate), a SCION origin in AS211 serving /big, and a client in
// AS111 whose proxy stripes with stripe (nil = striping off). The intra-ISD edges keep their 1 Gbit capacity — in particular the
// shared last link 210-211, which both disjoint paths traverse. A non-nil
// wrap decorates the origin handler — the hook the path-kill test uses to
// trigger its fault deterministically from inside the virtual event flow.
func stripeWorld(t *testing.T, seed, bwBits int64, size int, stripe *pan.StripeOptions, wrap func(http.Handler) http.Handler) (*World, *Client) {
	t.Helper()
	w, err := NewWorld(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, pair := range [][2]addr.IA{
		{topology.Core110, topology.Core210},
		{topology.Core120, topology.Core210},
		{topology.Core120, topology.Core220},
	} {
		l := w.DW.Link(pair[0], pair[1])
		p := l.Props()
		p.Bandwidth = bwBits
		l.SetProps(p)
	}
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})

	site := webserver.NewSite()
	site.Add("/big", "application/octet-stream", stripeBody(size))
	var handler http.Handler = site
	if wrap != nil {
		handler = wrap(handler)
	}
	if err := w.scionServer(topology.AS211, "10.0.0.2", handler, time.Hour, "stripe.example"); err != nil {
		t.Fatal(err)
	}
	c, err := w.NewClient(ClientConfig{IA: topology.AS111, IP: "10.0.0.1", LegacyName: "client", Proxy: proxy.Config{Stripe: stripe}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

// fetchBig pulls /big through the client's proxy and returns the body.
func fetchBig(t *testing.T, c *Client) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Proxy.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://stripe.example/big", nil))
	res := rec.Result()
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.StatusCode)
	}
	if via := res.Header.Get("X-Skip-Via"); via != "scion" {
		t.Fatalf("via = %q, want scion", via)
	}
	return body
}

// TestStripedTransferSpeedup is the striping acceptance experiment: with
// every single path capped at 20 Mbit, fetching one large resource striped
// over two link-disjoint paths must beat the best single path by >= 1.5x in
// virtual time.
func TestStripedTransferSpeedup(t *testing.T) {
	const size = 6 << 20
	w, c := stripeWorld(t, 42, 20_000_000, size, nil, nil)
	want := stripeBody(size)

	start := w.Clock.Now()
	got := fetchBig(t, c)
	single := w.Clock.Now().Sub(start)
	if !bytes.Equal(got, want) {
		t.Fatal("single-path transfer corrupted the body")
	}

	// A second client, built to stripe, starts cold for a fair comparison.
	c, err := w.NewClient(ClientConfig{IA: topology.AS111, IP: "10.0.0.4", LegacyName: "client-striped", Proxy: proxy.Config{Stripe: stripeOpts}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	start = w.Clock.Now()
	got = fetchBig(t, c)
	striped := w.Clock.Now().Sub(start)
	if !bytes.Equal(got, want) {
		t.Fatal("striped transfer corrupted the body")
	}

	speedup := float64(single) / float64(striped)
	t.Logf("single-path %v, striped %v, speedup %.2fx", single, striped, speedup)
	if speedup < 1.5 {
		t.Errorf("striped speedup %.2fx (single %v, striped %v), want >= 1.5x", speedup, single, striped)
	}

	// The striped request must be visible in the stats feedback, with its
	// bytes split across at least two carrying paths and summing to the
	// resource size.
	snap := c.Proxy.Stats().Snapshot()
	if snap.Striped != 1 {
		t.Errorf("snapshot striped count = %d, want 1", snap.Striped)
	}
	recs := c.Proxy.Stats().Records()
	last := recs[len(recs)-1]
	if !last.Striped {
		t.Fatal("last record not marked striped")
	}
	var sum int64
	carried := 0
	for _, b := range last.PathBytes {
		sum += b
		if b > 0 {
			carried++
		}
	}
	if sum != int64(size) {
		t.Errorf("per-path byte split sums to %d, want %d", sum, size)
	}
	if carried < 2 {
		t.Errorf("striped bytes travelled over %d path(s), want >= 2 (split %v)", carried, last.PathBytes)
	}
}

// TestStripedTransferSurvivesPathKill black-holes one of the two striped
// paths mid-transfer: the dead pipeline's outstanding segments must be
// reassigned to the survivor and the response must still arrive complete and
// intact. The kill triggers from inside the origin handler — on the 12th
// request (1 probe + 11 of 47 segments) — so it lands mid-transfer at a
// deterministic point of the virtual event flow, immune to the wall-clock /
// virtual-clock skew a polling trigger would race against.
func TestStripedTransferSurvivesPathKill(t *testing.T) {
	const size = 6 << 20
	var w *World
	var c *Client
	var reqs atomic.Int32
	activeAtKill := make(chan int, 1)
	kill := func() {
		active := 0
		for _, pipes := range c.Proxy.StripeStatus() {
			for _, ps := range pipes {
				if ps.Bytes >= 128<<10 {
					active++
				}
			}
		}
		activeAtKill <- active
		// The leader path runs 111-121-120-210-211; its disjoint partner
		// crosses 110-210, so killing 110-210 collapses exactly one pipeline
		// while the probe's pooled connection survives on the leader.
		link := w.DW.Link(topology.Core110, topology.Core210)
		p := link.Props()
		p.LossRate = 1
		link.SetProps(p)
	}
	w, c = stripeWorld(t, 43, 10_000_000, size, stripeOpts, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if reqs.Add(1) == 12 {
				kill()
			}
			next.ServeHTTP(rw, r)
		})
	})
	want := stripeBody(size)

	rec := httptest.NewRecorder()
	c.Proxy.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://stripe.example/big", nil))
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()

	select {
	case active := <-activeAtKill:
		if active < 2 {
			t.Errorf("only %d pipeline(s) had moved >= 128KB at kill time, want 2", active)
		}
	default:
		t.Fatalf("transfer finished after %d requests without reaching the kill trigger", reqs.Load())
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status after path kill = %d, want 200", res.StatusCode)
	}
	if len(body) != size {
		t.Fatalf("body after path kill = %d bytes, want %d", len(body), size)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("path kill corrupted the body")
	}
	deadSeen := false
	for _, pipes := range c.Proxy.StripeStatus() {
		for _, ps := range pipes {
			if ps.Dead {
				deadSeen = true
			}
		}
	}
	if !deadSeen {
		t.Error("no pipeline marked dead after the path kill")
	}
	if testing.Verbose() {
		for dst, pipes := range c.Proxy.StripeStatus() {
			for _, ps := range pipes {
				fmt.Printf("%s: %s dead=%v bytes=%d losses=%d\n", dst, ps.Fingerprint, ps.Dead, ps.Bytes, ps.Losses)
			}
		}
		for i, l := range w.DW.Links() {
			for end := 0; end < 2; end++ {
				s := l.Stats(end)
				if s.Lost > 0 || s.TooBig > 0 {
					fmt.Printf("link %d end %d: lost=%d toobig=%d delivered=%d\n", i, end, s.Lost, s.TooBig, s.Delivered)
				}
			}
		}
	}
}

// TestStripedProbeRefusesOversizedTotal: an origin whose 206 to the probe
// claims a 1 TiB resource is not striped (that would size a 1 TiB buffer):
// the proxy re-requests the resource un-striped and relays what the origin
// actually sends.
func TestStripedProbeRefusesOversizedTotal(t *testing.T) {
	const size = 256 << 10
	var ranged, plain atomic.Int32
	_, c := stripeWorld(t, 44, 20_000_000, size, stripeOpts, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Range") == "" {
				plain.Add(1)
				next.ServeHTTP(rw, r)
				return
			}
			ranged.Add(1)
			rw.Header().Set("Content-Range", "bytes 0-131071/1099511627776")
			rw.WriteHeader(http.StatusPartialContent)
			rw.Write(stripeBody(128 << 10))
		})
	})
	if got := fetchBig(t, c); !bytes.Equal(got, stripeBody(size)) {
		t.Fatalf("relayed %d bytes, want the origin's %d-byte resource", len(got), size)
	}
	if ranged.Load() != 1 || plain.Load() != 1 {
		t.Fatalf("origin saw %d ranged and %d plain requests, want the probe and one plain GET", ranged.Load(), plain.Load())
	}
	if snap := c.Proxy.Stats().Snapshot(); snap.Striped != 0 {
		t.Fatalf("striped count = %d, want 0", snap.Striped)
	}
}
