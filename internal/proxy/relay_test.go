package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/pan/stripe"
	"tango/internal/pathdb"
	"tango/internal/segment"
	"tango/internal/shttp"
	"tango/internal/snet"
	"tango/internal/squic"
	"tango/internal/topology"
)

// plainWriter is a ResponseWriter that hides io.ReaderFrom, as middleware
// and recording writers do, so a relay into it must bring its own buffer.
type plainWriter struct{ h http.Header }

func (w *plainWriter) Header() http.Header         { return w.h }
func (w *plainWriter) WriteHeader(int)             {}
func (w *plainWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestCopyResponseReusesRelayBuffer: relaying a response body allocates no
// per-response copy buffer. The bound is an average over many relays, not
// an exact 0, because a sync.Pool may drop buffers (at a GC, and at random
// under the race detector); one fresh 32 KiB buffer per relay exceeds it.
func TestCopyResponseReusesRelayBuffer(t *testing.T) {
	const relays, size = 200, 64 << 10
	body := make([]byte, size)
	w := &plainWriter{h: http.Header{}}
	relay := func() {
		// The struct hides bytes.Reader's WriterTo, as an HTTP body does.
		src := struct{ io.Reader }{bytes.NewReader(body)}
		resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(src)}
		if n := copyResponse(w, resp); n != size {
			t.Fatalf("relayed %d bytes, want %d", n, size)
		}
	}
	relay() // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range relays {
		relay()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / relays; per >= 16<<10 {
		t.Fatalf("%d bytes allocated per relay, want < 16 KiB", per)
	}
}

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	during = t0.Add(time.Hour)
)

// segmentServer serves 206 answers over squic from AS211 and returns a
// client connection to it from AS111, with the world's clock. The body for
// Range bytes=a-b is the pattern from a, of length b-a+1 adjusted by
// skew(path): positive makes it overlong, negative short.
func segmentServer(t *testing.T, skew func(path string) int) (*squic.Conn, *segment.Path, netsim.Clock) {
	t.Helper()
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t0.Add(24*time.Hour))
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
	t.Cleanup(clock.AutoAdvance(150 * time.Microsecond))
	socket := func(ia addr.IA, ip string, port uint16) *snet.Conn {
		c, err := snet.NewDispatcher(dw.Router(ia), clock).Host(netip.MustParseAddr(ip), dw.Router(ia)).Listen(port)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	id, err := squic.NewIdentity("stripe.test")
	if err != nil {
		t.Fatal(err)
	}
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	lis, err := squic.Listen(socket(topology.AS211, "10.0.0.2", 443), &squic.Config{Clock: clock, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go shttp.Serve(lis, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var first, last int
		if _, err := fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &first, &last); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", first, last, last+1))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(pattern(int64(first), last-first+1+skew(r.URL.Path)))
	}))

	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	conn, err := squic.Dial(socket(topology.AS111, "10.0.0.1", 0), remote, paths[0], "stripe.test",
		&squic.Config{Clock: clock, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, paths[0], clock
}

// pattern is byte k of the test resource from off: (k mod 251).
func pattern(off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + int64(i)) % 251)
	}
	return b
}

func segmentRequest(t *testing.T, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://stripe.test"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestStripeFetchReadsAtMostOneExtraByte: a segment read stops one byte
// past the segment, so an overlong 206 comes back as Length+1 bytes and a
// short one as what it carried; either way the scheduler sees a length
// mismatch.
func TestStripeFetchReadsAtMostOneExtraByte(t *testing.T) {
	conn, path, _ := segmentServer(t, func(p string) int {
		return map[string]int{"/over": 100, "/short": -1}[p]
	})
	pl := stripe.NewPipeline(conn, path, 0, 0)
	seg := stripe.Segment{Offset: 1000, Length: 4096}
	for _, tc := range []struct {
		path string
		want int
	}{{"/exact", 4096}, {"/over", 4097}, {"/short", 4095}} {
		data, err := stripeFetch(segmentRequest(t, tc.path))(context.Background(), pl, seg)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !bytes.Equal(data, pattern(seg.Offset, tc.want)) {
			t.Fatalf("%s: got %d bytes, want the %d-byte pattern", tc.path, len(data), tc.want)
		}
	}
}

// TestStripeFetchMismatchIsLoss: the scheduler charges an overlong and a
// short segment as losses, re-fetches them and reassembles the resource.
func TestStripeFetchMismatchIsLoss(t *testing.T) {
	var mu sync.Mutex
	served := 0
	conn, path, clock := segmentServer(t, func(string) int {
		mu.Lock()
		defer mu.Unlock()
		served++
		return map[int]int{1: 100, 2: -1}[served]
	})
	p1 := stripe.NewPipeline(conn, path, 0, 0)
	p2 := stripe.NewPipeline(conn, path, 0, 0)
	const length = 6 * 4096
	res, err := stripe.Fetch(context.Background(), 0, length, []*stripe.Pipeline{p1, p2}, stripe.Options{
		SegmentSize:   4096,
		Clock:         clock,
		Fetch:         stripeFetch(segmentRequest(t, "/flaky")),
		DeadThreshold: 10,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !bytes.Equal(res.Data, pattern(0, length)) {
		t.Fatal("reassembled data differs from the resource")
	}
	if losses := p1.Status().Losses + p2.Status().Losses; losses != 2 || res.Retries != 2 {
		t.Fatalf("losses = %d, retries = %d; want 2 and 2", losses, res.Retries)
	}
}
