package pan_test

import (
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/topology"
)

// The allocation budgets below are the ones the CI bench-smoke gates hold
// (MonitorIngestContended, MonitorPassive, ServerObserve); asserting them
// here keeps them enforced by the plain test run too.

// TestMonitorIngestAllocs: steady-state passive ingest on a tracked path
// with a BatchSink subscribed allocates nothing, one sample or a burst.
func TestMonitorIngestAllocs(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0)}
	clock := netsim.NewSimClock(time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC))
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		Probe: (&probeScript{}).fn,
	})
	m.SubscribeBatch(pan.NewLatencySelector())
	m.Track(probeTarget(0), "probe.server")
	burst := make([]time.Duration, 64)
	for i := range burst {
		burst[i] = time.Duration(16+i%8) * time.Millisecond
	}
	m.ObserveBatch(paths[0], burst) // warm: series built, report buffer pooled

	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		m.Observe(paths[0], time.Duration(16+i%8)*time.Millisecond)
	}); n != 0 {
		t.Errorf("Observe: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ObserveBatch(paths[0], burst) }); n != 0 {
		t.Errorf("ObserveBatch of %d samples: %v allocs/op, want 0", len(burst), n)
	}
}

// TestMonitorPassiveAllocs: one Observe on a host monitor over real
// control-plane paths, a LatencySelector subscribed — BenchmarkMonitorPassive's
// op — stays within its budget of 8 allocs.
func TestMonitorPassiveAllocs(t *testing.T) {
	w := newWorld(t)
	client := w.host(topology.AS111, "10.0.0.8")
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	m := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	m.SubscribeBatch(pan.NewLatencySelector())
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.9")}, Port: 7500}, "bench.race")
	base := 2 * paths[0].Meta.Latency
	m.Observe(paths[0], base)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		m.Observe(paths[0], base+time.Duration(i%8)*time.Millisecond)
	}); n > 8 {
		t.Errorf("Observe: %v allocs/op, budget 8", n)
	}
}

// TestServerObserveAllocs: one passive ingest on a reverse path plus one
// steering evaluation — BenchmarkServerObserve's op — stays within its
// budget of 64 allocs.
func TestServerObserveAllocs(t *testing.T) {
	w := newWorld(t)
	server := w.host(topology.AS211, "10.0.0.9")
	st := server.NewServerTelemetry(nil)
	m := st.Monitor()
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.8")}, Port: 40000}, "")
	rev := server.Paths(topology.AS111)
	if len(rev) == 0 {
		t.Fatal("no reverse paths")
	}
	base := 2 * rev[0].Meta.Latency
	m.Observe(rev[0], base)
	if _, ok := st.PickReverse(topology.AS111); !ok {
		t.Fatal("no steering pick despite fresh telemetry")
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		m.Observe(rev[0], base+time.Duration(i%8)*time.Millisecond)
		st.PickReverse(topology.AS111)
	}); n > 64 {
		t.Errorf("Observe+PickReverse: %v allocs/op, budget 64", n)
	}
}
