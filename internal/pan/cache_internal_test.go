package pan

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/testbed"
)

// TestLinkStatsCached (whitebox): the sorted link snapshot is computed once
// and reused across calls, invalidated exactly by sample ingest, and expired
// by age so series can still drop out without a fresh sample.
func TestLinkStatsCached(t *testing.T) {
	via := addr.IA{ISD: 1, AS: 0x110}
	dst := addr.IA{ISD: 2, AS: 0x211}
	src := addr.IA{ISD: 1, AS: 0x111}
	path := &segment.Path{
		Src: src, Dst: dst,
		Hops: []segment.Hop{
			{IA: src, Egress: 1},
			{IA: via, Ingress: 2, Egress: 3},
			{IA: dst, Ingress: 4},
		},
		Meta: segment.Metadata{Latency: 10 * time.Millisecond},
	}
	clock := testbed.NewClock()
	m := NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{path} }, MonitorOptions{
		BaseInterval: time.Second,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return 0, ErrNoPath
		},
	})
	target := addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	m.Track(target, "cache.server")

	m.Observe(path, 100*time.Millisecond)
	first := m.LinkStats()
	if len(first) == 0 {
		t.Fatal("no link stats after ingest")
	}
	m.mu.Lock()
	if m.linkCache == nil {
		m.mu.Unlock()
		t.Fatal("LinkStats did not populate the cache")
	}
	cacheHead := &m.linkCache[0]
	m.mu.Unlock()

	second := m.LinkStats()
	m.mu.Lock()
	rebuilt := &m.linkCache[0] != cacheHead
	m.mu.Unlock()
	if rebuilt {
		t.Fatal("LinkStats rebuilt the cache with no ingest in between")
	}
	if len(second) != len(first) || second[0] != first[0] {
		t.Fatalf("cached snapshot diverged: %+v vs %+v", second, first)
	}
	// Returned slices are copies: callers cannot corrupt the cache.
	second[0].Congestion = time.Hour
	if got := m.LinkStats()[0].Congestion; got == time.Hour {
		t.Fatal("LinkStats handed out the cache's own backing array")
	}

	// Ingest invalidates (via the dirty flag); the next call recomputes
	// with the new sample.
	m.Observe(path, 300*time.Millisecond)
	m.mu.Lock()
	dirty := m.linkDirty
	m.mu.Unlock()
	if !dirty {
		t.Fatal("sample ingest did not mark the cache dirty")
	}
	third := m.LinkStats()
	if third[0].Congestion <= first[0].Congestion {
		t.Fatalf("recomputed congestion %v not above initial %v", third[0].Congestion, first[0].Congestion)
	}
	m.mu.Lock()
	dirty = m.linkDirty
	m.mu.Unlock()
	if dirty {
		t.Fatal("rebuild did not clear the dirty flag")
	}

	// Pure aging also refreshes: past MaxInterval the cache expires, and
	// past the stale-series horizon the link drops out entirely — without a
	// single ingest to invalidate.
	m.mu.Lock()
	cachedAt := m.linkCacheAt
	m.mu.Unlock()
	clock.Advance(m.opts.MaxInterval + time.Second)
	m.LinkStats()
	m.mu.Lock()
	refreshed := m.linkCacheAt.After(cachedAt)
	m.mu.Unlock()
	if !refreshed {
		t.Fatal("cache did not expire after MaxInterval")
	}
	clock.Advance(time.Duration(staleSeriesAfter) * m.opts.MaxInterval)
	if left := m.LinkStats(); len(left) != 0 {
		t.Fatalf("stale series survived the horizon through the cache: %+v", left)
	}
}
