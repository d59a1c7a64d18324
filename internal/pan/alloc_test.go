package pan_test

import (
	"context"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// The monitor's hot paths each have an allocation budget, held here by a
// test and timed by the benchmark beside it: steady-state ingest (0),
// proxy-scale ingest (0), a host monitor's Observe (0) and a server's
// Observe plus steering pick (9). Each budget is what its op measures, so
// one allocation added to ingest fails them.

// TestMonitorIngestAllocs: steady-state passive ingest on a tracked path
// with a BatchSink subscribed allocates nothing, one sample or a burst.
func TestMonitorIngestAllocs(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0)}
	clock := testbed.NewClock()
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

// BenchmarkMonitorIngestContended is the worst case for passive ingest:
// every producer bursts ObserveBatch at paths to ONE destination AS, with a
// selector subscribed as a BatchSink as the dialer wires it, so all of them
// contend for the monitor lock. Each op is one 64-sample burst from every
// worker (reported as samples/op). TestMonitorIngestAllocs holds its 0
// allocs; CI's bench step holds an ns/op ceiling.
func BenchmarkMonitorIngestContended(b *testing.B) {
	const burst = 64
	// Contention needs goroutines, not cores: at GOMAXPROCS=1 the scheduler
	// still interleaves producers mid-burst.
	workers := max(runtime.GOMAXPROCS(0), 4)
	paths := make([]*segment.Path, workers)
	for i := range paths {
		paths[i] = fakePath(topology.AS211, i)
	}
	m := pan.NewMonitor(netsim.RealClock{}, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		Probe: (&probeScript{}).fn,
	})
	m.SubscribeBatch(pan.NewLatencySelector())
	m.Track(probeTarget(0), "contended.bench")

	start := make([]chan struct{}, workers)
	stop := make(chan struct{})
	var done sync.WaitGroup
	for w := range workers {
		start[w] = make(chan struct{}, 1)
		go func() {
			rtts := make([]time.Duration, burst)
			for i := range rtts {
				rtts[i] = time.Duration(16+i%8) * time.Millisecond
			}
			for {
				select {
				case <-stop:
					return
				case <-start[w]:
				}
				m.ObserveBatch(paths[w], rtts)
				done.Done()
			}
		}()
	}
	defer close(stop)
	fire := func() {
		done.Add(workers)
		for w := range start {
			start[w] <- struct{}{}
		}
		done.Wait()
	}
	fire() // warm: series maps built, report buffers pooled
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		fire()
	}
	b.StopTimer()
	b.ReportMetric(float64(workers*burst), "samples/op")
	st := m.IngestStats()
	if total := uint64((b.N + 1) * workers * burst); st.Enqueued != total || st.Applied != total {
		b.Fatalf("enqueued %d and applied %d of %d samples (%+v)", st.Enqueued, st.Applied, total, st)
	}
	b.ReportMetric(float64(st.Applied)/float64(st.Batches), "samples/batch")
}

// scaleMonitor is a proxy-scale monitor on clock: originsPerAS origins
// tracked in each of 1024 destination ASes, 3 paths per AS through 64
// shared transit ASes, every path's series warmed by one sample. Its probe,
// unless opts sets one, succeeds at once with a 1 ms RTT. It returns the
// monitor and its 3072 paths.
func scaleMonitor(tb testing.TB, clock netsim.Clock, originsPerAS int, opts pan.MonitorOptions) (*pan.Monitor, []*segment.Path) {
	const ases, pathsPerAS = 1024, 3
	byIA := make(map[addr.IA][]*segment.Path, ases)
	all := make([]*segment.Path, 0, ases*pathsPerAS)
	src := topology.AS111
	for a := range ases {
		dst := addr.IA{ISD: addr.ISD(2 + a%14), AS: addr.AS(0x1_0000 + a)}
		via := addr.IA{ISD: 1, AS: addr.AS(0x4000 + a%64)}
		for i := range pathsPerAS {
			p := &segment.Path{
				Src: src, Dst: dst,
				Hops: []segment.Hop{
					{IA: src, Egress: addr.IfID(1 + i)},
					{IA: via, Ingress: addr.IfID(100 + i), Egress: addr.IfID(200 + i)},
					{IA: dst, Ingress: addr.IfID(10 + i)},
				},
				Meta: segment.Metadata{Latency: time.Duration(8+i) * time.Millisecond},
			}
			byIA[dst] = append(byIA[dst], p)
			all = append(all, p)
		}
	}
	if opts.Probe == nil {
		opts.Probe = func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		}
	}
	m := pan.NewMonitor(clock, func(ia addr.IA) []*segment.Path { return byIA[ia] }, opts)
	host := netip.MustParseAddr("10.3.0.1")
	for a := range ases {
		dst := all[a*pathsPerAS].Dst
		for o := range originsPerAS {
			m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: host}, Port: uint16(1024 + o)}, "scale.bench")
		}
	}
	for i, p := range all {
		m.Observe(p, time.Duration(16+i%8)*time.Millisecond)
	}
	return m, all
}

// BenchmarkMonitorScale ingests passive samples from parallel goroutines
// into a monitor tracking ~100k origins while its probe timers run: ns/op
// is the per-sample cost on the squic ack hot path (target ≤1µs) behind
// one lock. Setup, the 100k Tracks, happens off the timer.
func BenchmarkMonitorScale(b *testing.B) {
	const originsPerAS = 98
	m, all := scaleMonitor(b, netsim.RealClock{}, originsPerAS, pan.MonitorOptions{})
	m.Start()
	defer m.Stop()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(1)) * 7919
		for pb.Next() {
			// Vary path and sample so the EWMA/deviation and link
			// attribution do real work across destinations.
			m.Observe(all[i%len(all)], time.Duration(16+i%8)*time.Millisecond)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(1024*originsPerAS), "origins")
	b.ReportMetric(float64(m.TrackedPaths()), "paths")
}

// monitorSchedule returns BenchmarkMonitorSchedule's op and a count of
// the probes sent so far: scaleMonitor's 3072 paths, each on its own clock
// timer, on a virtual clock with no budget floor. One op is 1 ms of
// virtual time, then a few yields so the probe goroutines it launched run.
func monitorSchedule(tb testing.TB) (op func(), probes func() int64) {
	clock := testbed.NewClock()
	var n atomic.Int64
	m, _ := scaleMonitor(tb, clock, 1, pan.MonitorOptions{
		ProbeBudget: -1,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			n.Add(1)
			return time.Millisecond, nil
		},
	})
	m.Start()
	tb.Cleanup(m.Stop)
	return func() {
		clock.Advance(time.Millisecond)
		for range 4 {
			runtime.Gosched()
		}
	}, n.Load
}

// BenchmarkMonitorSchedule runs the probe schedule of monitorSchedule.
// ns/op is the scheduler's host cost per virtual millisecond at proxy
// scale; probes/op is how many probes that millisecond sent, and
// allocs/probe what each of them cost.
func BenchmarkMonitorSchedule(b *testing.B) {
	op, probes := monitorSchedule(b)
	var before, after runtime.MemStats
	b.ReportAllocs()
	p0 := probes()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	sent := probes() - p0
	b.ReportMetric(float64(sent)/float64(b.N), "probes/op")
	if sent > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(sent), "allocs/probe")
	}
}

// TestMonitorScheduleAllocsPerProbe: a scheduled probe costs three
// allocations, counted over 20 s of monitorSchedule's virtual time once
// every path has probed: its timer, the timer's callback and the probe
// goroutine. Syncing the outcome to the path's targets allocates nothing
// (a snapshot of the target keys made it four), and a timer that wraps its
// heap node in a cancel closure adds one more.
func TestMonitorScheduleAllocsPerProbe(t *testing.T) {
	op, probes := monitorSchedule(t)
	for range 5000 {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p0 := probes()
	for range 20000 {
		op()
	}
	runtime.ReadMemStats(&after)
	sent := probes() - p0
	if sent == 0 {
		t.Fatal("no probes sent")
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(sent); per > 3.5 {
		t.Errorf("%.2f allocs per scheduled probe over %d probes, want 3", per, sent)
	}
}

// TestMonitorScaleAllocs: BenchmarkMonitorScale's op, one Observe on a
// proxy-scale monitor, allocates nothing in the steady state. An Observe
// touches one path's series and its links, never the origin table, so two
// origins per AS measure the same as the benchmark's 98.
func TestMonitorScaleAllocs(t *testing.T) {
	m, all := scaleMonitor(t, netsim.RealClock{}, 2, pan.MonitorOptions{})
	i := 7919
	if n := testing.AllocsPerRun(100, func() {
		m.Observe(all[i%len(all)], time.Duration(16+i%8)*time.Millisecond)
		i += 31
	}); n != 0 {
		t.Errorf("Observe at scale: %v allocs/op, want 0", n)
	}
}

// monitorPassive returns BenchmarkMonitorPassive's op, warmed once: one
// Observe on a host monitor over real control-plane paths to a tracked
// inter-ISD destination, a LatencySelector subscribed. samples counts the
// passive samples the path's telemetry has taken.
func monitorPassive(tb testing.TB) (op func(), samples func() int) {
	client := newWorld(tb).host(topology.AS111, "10.0.0.8")
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		tb.Fatal("no paths")
	}
	m := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	m.SubscribeBatch(pan.NewLatencySelector())
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.9")}, Port: 7500}, "bench.race")
	base := 2 * paths[0].Meta.Latency
	i := 0
	op = func() {
		// Vary the sample so the EWMA/deviation arithmetic does real work.
		m.Observe(paths[0], base+time.Duration(i%8)*time.Millisecond)
		i++
	}
	op()
	return op, func() int {
		tel, _ := m.Telemetry(paths[0].Fingerprint())
		return tel.PassiveSamples
	}
}

// BenchmarkMonitorPassive measures passive-sample ingest: the EWMA and
// deviation update, churn adaptation and per-link excess attribution that
// every ack RTT of a pooled connection pays on the hot path.
func BenchmarkMonitorPassive(b *testing.B) {
	op, samples := monitorPassive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	if got := samples(); got != b.N+1 {
		b.Fatalf("ingested %d of %d passive samples", got, b.N+1)
	}
}

// TestMonitorPassiveAllocs: BenchmarkMonitorPassive's op allocates
// nothing.
func TestMonitorPassiveAllocs(t *testing.T) {
	op, samples := monitorPassive(t)
	if n := testing.AllocsPerRun(100, op); n > 0 {
		t.Errorf("Observe: %v allocs/op, budget 0", n)
	}
	if got := samples(); got != 102 {
		t.Fatalf("ingested %d of 102 passive samples", got)
	}
}

// serverObserve returns BenchmarkServerObserve's op, warmed once: one
// passive ack-RTT ingest on the reverse path to a tracked client endpoint,
// as ServerTelemetry tracks accepted connections, plus one steering
// evaluation over every known reverse path. samples counts the passive
// samples the reverse path's telemetry has taken.
func serverObserve(tb testing.TB) (op func(), samples func() int) {
	server := newWorld(tb).host(topology.AS211, "10.0.0.9")
	st := server.NewServerTelemetry(nil)
	m := st.Monitor()
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.8")}, Port: 40000}, "")
	rev := server.Paths(topology.AS111)
	if len(rev) == 0 {
		tb.Fatal("no reverse paths")
	}
	base := 2 * rev[0].Meta.Latency
	i := 0
	op = func() {
		m.Observe(rev[0], base+time.Duration(i%8)*time.Millisecond)
		i++
		if _, ok := st.PickReverse(topology.AS111); !ok {
			tb.Fatal("no steering pick despite fresh telemetry")
		}
	}
	// The first pick builds the telemetry maps and the combiner's path cache.
	op()
	return op, func() int {
		tel, _ := m.Telemetry(rev[0].Fingerprint())
		return tel.PassiveSamples
	}
}

// BenchmarkServerObserve measures the server half of the telemetry plane:
// the work a serving host pays to build path health from its own traffic
// and keep replies on the monitor-ranked reverse path.
func BenchmarkServerObserve(b *testing.B) {
	op, samples := serverObserve(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	if got := samples(); got != b.N+1 {
		b.Fatalf("server ingested %d of %d samples", got, b.N+1)
	}
}

// TestServerObserveAllocs: BenchmarkServerObserve's op allocates nothing:
// the link view is refilled in place and the penalty reads each entry's
// memoized links.
func TestServerObserveAllocs(t *testing.T) {
	op, samples := serverObserve(t)
	if n := testing.AllocsPerRun(100, op); n > 0 {
		t.Errorf("Observe+PickReverse: %v allocs/op, budget 0", n)
	}
	if got := samples(); got != 102 {
		t.Fatalf("server ingested %d of 102 samples", got)
	}
}

// TestDialerLookupAllocs: with a live pooled connection, the lookups the
// proxy makes around every round trip (PoolState before and after it,
// Cached for the annotation) allocate nothing, because the pools are keyed
// by comparable structs rather than formatted strings.
func TestDialerLookupAllocs(t *testing.T) {
	_, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server"})
	defer d.Close()
	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, live := d.PoolState(remote, ""); !live {
			t.Fatal("pooled connection not live")
		}
		if _, ok := d.Cached(remote, ""); !ok {
			t.Fatal("no cached selection")
		}
	}); n != 0 {
		t.Errorf("PoolState + Cached: %v allocs, want 0", n)
	}
}
