package proxy

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/addr"
)

func originHost(i int) string { return fmt.Sprintf("origin-%d.example", i) }

// TestOriginSweepOffRequestPath: the over-cap origin sweep queries the
// monitor with NO proxy lock held, so a sweep in flight — even one stalled
// inside the telemetry plane — never blocks the request path for more than
// its one map insert.
func TestOriginSweepOffRequestPath(t *testing.T) {
	p := &Proxy{origins: make(map[string]originRec)}
	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	p.originTracked = func(_ addr.UDPAddr, _ string) bool {
		if first {
			first = false
			close(entered)
			<-release // the sweep stalls here, holding no proxy lock
		}
		return false // everything in the snapshot is stale
	}

	// Fill past the sweep threshold through the real request-path entry
	// point; the crossing insert launches the sweep goroutine.
	for i := 0; i <= maxTrackedOrigins+maxTrackedOrigins/4; i++ {
		p.observeFirstByte(originHost(i), addr.UDPAddr{}, nil, 0, false, 0)
	}
	select {
	case <-entered:
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never started")
	}

	// The sweep is mid-flight and blocked. Requests must still get through:
	// a re-touch of an existing origin and a brand-new origin both complete.
	done := make(chan struct{})
	go func() {
		p.observeFirstByte(originHost(0), addr.UDPAddr{}, nil, 0, false, 0)
		p.observeFirstByte("fresh.example", addr.UDPAddr{}, nil, 0, false, 0)
		close(done)
	}()
	select {
	case <-done:
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(5 * time.Second):
		t.Fatal("observeFirstByte blocked behind an in-flight origin sweep")
	}

	close(release)
	//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		sweeping := p.sweeping
		p.mu.Unlock()
		if !sweeping {
			break
		}
		//lint:allow-wallclock wall-clock deadline bounds a real-time polling loop
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	// Entries touched AFTER the sweep's snapshot survive the stale pass —
	// their verdicts described a state that no longer held; everything else
	// was stale and goes.
	if _, ok := p.origins[originHost(0)]; !ok {
		t.Error("origin re-touched during the sweep was evicted")
	}
	if _, ok := p.origins["fresh.example"]; !ok {
		t.Error("origin inserted during the sweep was evicted")
	}
	if _, ok := p.origins[originHost(1)]; ok {
		t.Error("stale origin survived the sweep")
	}
}

// TestOriginEvictionOldestFirst: when every origin is still live and the map
// is over cap, eviction goes strictly by last-touched order — the busiest
// origin keeps its slot no matter where map iteration would have found it.
func TestOriginEvictionOldestFirst(t *testing.T) {
	p := &Proxy{origins: make(map[string]originRec)}
	total := maxTrackedOrigins + maxTrackedOrigins/2
	for i := 0; i < total; i++ {
		p.originSeq++
		p.origins[originHost(i)] = originRec{touch: p.originSeq}
	}
	// origin-0 went in first — oldest by insertion — but is the busiest:
	// its latest request re-touched it after everyone else.
	p.originSeq++
	p.origins[originHost(0)] = originRec{touch: p.originSeq}

	// Nil monitor: no staleness verdicts, recency alone decides.
	p.sweepOrigins()

	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.origins) != maxTrackedOrigins {
		t.Fatalf("sweep left %d origins, want exactly %d", len(p.origins), maxTrackedOrigins)
	}
	if _, ok := p.origins[originHost(0)]; !ok {
		t.Error("busiest origin was evicted by an over-cap sweep")
	}
	// The evicted set is exactly the oldest-touched tail: origins 1 through
	// total-maxTrackedOrigins went, the rest stayed.
	evicted := total - maxTrackedOrigins
	for i := 1; i <= evicted; i++ {
		if _, ok := p.origins[originHost(i)]; ok {
			t.Fatalf("old idle origin %d survived while newer ones must have been evicted", i)
		}
	}
	for i := evicted + 1; i < total; i++ {
		if _, ok := p.origins[originHost(i)]; !ok {
			t.Fatalf("recently touched origin %d was evicted before older ones", i)
		}
	}
}
