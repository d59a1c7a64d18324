// Package tango_test benchmarks the reproduction: one benchmark per paper
// table/figure (regenerating the experiment and reporting the measured
// virtual-time PLTs as custom metrics) plus micro-benchmarks of the
// substrates (path combination, PPL evaluation, hop-field MACs, packet
// codec, beaconing, transport throughput).
//
// Run with:
//
//	go test -bench=. -benchmem
package tango_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/dataplane"
	"tango/internal/experiments"
	"tango/internal/layermodel"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/pathdb"
	"tango/internal/policy"
	"tango/internal/ppl"
	"tango/internal/segment"
	"tango/internal/snet"
	"tango/internal/squic"
	"tango/internal/stats"
	"tango/internal/topology"
)

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	t1     = t0.Add(24 * time.Hour)
	during = t0.Add(time.Hour)
)

// --- Experiment benchmarks: one per table/figure ---

// BenchmarkTable1LayerModel regenerates the Table 1 decision matrix.
func BenchmarkTable1LayerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := layermodel.Matrix()
		if len(m) != 12 {
			b.Fatal("matrix incomplete")
		}
	}
}

// benchFigure runs one figure experiment per iteration and reports the
// median virtual PLT of its first and last series.
func benchFigure(b *testing.B, run func(int) (*experiments.Figure, error)) {
	b.Helper()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = run(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig != nil {
		for _, s := range fig.Series {
			sum := stats.SummarizeDurations(s.Samples)
			b.ReportMetric(sum.Median, "virtms_"+sanitize(s.Label))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig3LocalPLT regenerates Figure 3 (local setup PLTs).
func BenchmarkFig3LocalPLT(b *testing.B) { benchFigure(b, experiments.RunFig3) }

// BenchmarkFig5RemotePLT regenerates Figure 5 (remote origin PLTs).
func BenchmarkFig5RemotePLT(b *testing.B) { benchFigure(b, experiments.RunFig5) }

// BenchmarkFig6LocalASPLT regenerates Figure 6 (AS-local origin PLTs).
func BenchmarkFig6LocalASPLT(b *testing.B) { benchFigure(b, experiments.RunFig6) }

// BenchmarkFig3Ablation regenerates the tight-integration projection: the
// paper's expectation that the prototype overhead disappears with native
// integration.
func BenchmarkFig3Ablation(b *testing.B) { benchFigure(b, experiments.RunFig3Ablation) }

// --- Substrate micro-benchmarks ---

func controlPlane(b *testing.B) (*topology.Topology, *beacon.Infra, *pathdb.Registry) {
	b.Helper()
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	reg := pathdb.NewRegistry(infra.Store)
	if err := beacon.NewService(topo, infra, reg, 12*time.Hour).Run(t0); err != nil {
		b.Fatal(err)
	}
	return topo, infra, reg
}

// BenchmarkStripedTransfer measures one striped fetch of the demo world's
// large resource through the full SKIP proxy stack: DisjointRace path pick,
// per-pipeline congestion control, segment scheduling, reassembly, and the
// per-path byte accounting in Stats. The first iteration pays the striped
// dial; later ones reuse the pooled pipelines (warm congestion state), which
// is the steady state a browser session sees. Virtual transfer time is
// reported alongside real CPU cost.
func BenchmarkStripedTransfer(b *testing.B) {
	w, c, err := experiments.Demo(1)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	c.Proxy.SetStripe(&pan.StripeOptions{Width: 2, SegmentSize: 128 << 10, MinStripeBytes: 128 << 10})
	url := "http://www.scion.example" + experiments.BigResourcePath

	var virtual time.Duration
	b.SetBytes(experiments.BigResourceSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := w.Clock.Now()
		rec := httptest.NewRecorder()
		c.Proxy.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK || rec.Body.Len() != experiments.BigResourceSize {
			b.Fatalf("fetch %d: status=%d len=%d", i, rec.Code, rec.Body.Len())
		}
		virtual += w.Clock.Now().Sub(start)
	}
	b.StopTimer()
	if snap := c.Proxy.Stats().Snapshot(); snap.Striped != b.N {
		b.Fatalf("striped %d of %d fetches", snap.Striped, b.N)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/fetch")
}

// BenchmarkBeaconRound measures one full beaconing round over the default
// topology (origination, propagation, signing, registration).
func BenchmarkBeaconRound(b *testing.B) {
	topo := topology.Default()
	infra, err := beacon.NewInfra(topo, t0, t1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := pathdb.NewRegistry(infra.Store)
		if err := beacon.NewService(topo, infra, reg, 12*time.Hour).Run(t0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathCombination measures end-to-end path assembly (up+core+down
// joins, shortcuts, peering) for an inter-ISD pair.
func BenchmarkPathCombination(b *testing.B) {
	_, _, reg := controlPlane(b)
	comb := pathdb.NewCombiner(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := comb.Paths(topology.AS111, topology.AS211, during)
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSegmentVerify measures signature-chain verification of a
// registered up-segment.
func BenchmarkSegmentVerify(b *testing.B) {
	_, infra, reg := controlPlane(b)
	segs := reg.UpSegments(topology.AS122, during)
	if len(segs) == 0 {
		b.Fatal("no segments")
	}
	seg := segs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := seg.Verify(infra.Store, during); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHopFieldMAC measures hop-field MAC computation (the router fast
// path).
func BenchmarkHopFieldMAC(b *testing.B) {
	info := segment.Info{Timestamp: t0, SegID: 1, Origin: topology.Core110}
	hf := segment.HopField{ConsIngress: 1, ConsEgress: 2, ExpTime: t1}
	key := []byte("forwarding-key-bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hf.MAC = segment.ComputeMAC(key, info, hf)
	}
}

// BenchmarkPacketCodec measures SCION packet marshal+unmarshal round trips.
func BenchmarkPacketCodec(b *testing.B) {
	_, _, reg := controlPlane(b)
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	pkt := &dataplane.Packet{
		Src:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1},
		Dst:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 2},
		Hops:    paths[0].Hops,
		Payload: make([]byte, 1000),
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(1000)
	for i := 0; i < b.N; i++ {
		buf, err := pkt.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dataplane.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPLPolicyEval measures full policy evaluation (ACL + sequence +
// metric caps + ordering) over the path set of an inter-ISD pair.
func BenchmarkPPLPolicyEval(b *testing.B) {
	_, _, reg := controlPlane(b)
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	seq, err := ppl.ParseSequence("1-ff00:0:111 0* 2-ff00:0:211")
	if err != nil {
		b.Fatal(err)
	}
	acl, err := ppl.ParseACL("- 2-ff00:0:220", "+")
	if err != nil {
		b.Fatal(err)
	}
	pol := &ppl.Policy{
		ACL: acl, Sequence: seq, MaxLatency: 200 * time.Millisecond,
		Orderings: []ppl.Ordering{ppl.OrderCarbon, ppl.OrderLatency},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := pol.Filter(paths); len(got) == 0 {
			b.Fatal("policy rejected everything")
		}
	}
}

// BenchmarkGeofenceCompliance measures ISD-level geofence checks.
func BenchmarkGeofenceCompliance(b *testing.B) {
	_, _, reg := controlPlane(b)
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	fence := policy.NewBlockGeofence(3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			if !fence.Compliant(p) {
				b.Fatal("unexpected violation")
			}
		}
	}
}

// BenchmarkSQUICTransfer measures squic stream goodput over a 2-hop SCION
// path (real time, since crypto and packetization dominate).
func BenchmarkSQUICTransfer(b *testing.B) {
	topo, infra, reg := controlPlane(b)
	clock := netsim.NewSimClock(during)
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		b.Fatal(err)
	}
	disp := make(map[addr.IA]*snet.Dispatcher)
	for _, as := range topo.ASes() {
		disp[as.IA] = snet.NewDispatcher(dw.Router(as.IA), clock)
	}
	stop := clock.AutoAdvance(0)
	defer stop()

	id, err := squic.NewIdentity("bench.server")
	if err != nil {
		b.Fatal(err)
	}
	pool := squic.NewCertPool()
	pool.AddIdentity(id)
	serverSock, err := disp[topology.AS112].Host(netip.MustParseAddr("10.0.0.2"), dw.Router(topology.AS112)).Listen(443)
	if err != nil {
		b.Fatal(err)
	}
	lis, err := squic.Listen(serverSock, &squic.Config{Clock: clock, Identity: id})
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					s, err := conn.AcceptStream()
					if err != nil {
						return
					}
					go func() {
						io.Copy(io.Discard, s)
						s.Write([]byte{1})
					}()
				}
			}()
		}
	}()

	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS112, during)
	clientSock, err := disp[topology.AS111].Host(netip.MustParseAddr("10.0.0.1"), dw.Router(topology.AS111)).Listen(0)
	if err != nil {
		b.Fatal(err)
	}
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS112, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}
	conn, err := squic.Dial(clientSock, remote, paths[0], "bench.server", &squic.Config{Clock: clock, Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const chunk = 256 << 10
	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := conn.OpenStream()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		s.CloseWrite()
		if _, err := io.ReadFull(s, make([]byte, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// panDialBench measures repeated requests to one authority through a
// pan.Dialer. With redial=false the pooled connection is reused across
// iterations; with redial=true the epoch is bumped every iteration, forcing a
// full select+handshake per request (the old per-request Host.Dial
// behavior). Reuse must win on repeated requests.
func panDialBench(b *testing.B, redial bool) {
	topo, infra, reg := controlPlane(b)
	clock := netsim.NewSimClock(during)
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		b.Fatal(err)
	}
	disp := make(map[addr.IA]*snet.Dispatcher)
	for _, as := range topo.ASes() {
		disp[as.IA] = snet.NewDispatcher(dw.Router(as.IA), clock)
	}
	stop := clock.AutoAdvance(0)
	defer stop()

	comb := pathdb.NewCombiner(reg)
	pool := squic.NewCertPool()
	server := pan.NewHost(disp[topology.AS112].Host(netip.MustParseAddr("10.0.0.2"), dw.Router(topology.AS112)), comb, pool)
	id, err := squic.NewIdentity("bench.pan")
	if err != nil {
		b.Fatal(err)
	}
	pool.AddIdentity(id)
	lis, err := server.Listen(443, id)
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					s, err := conn.AcceptStream()
					if err != nil {
						return
					}
					go func() {
						io.Copy(io.Discard, s)
						s.Write([]byte{1})
						s.CloseWrite()
					}()
				}
			}()
		}
	}()

	client := pan.NewHost(disp[topology.AS111].Host(netip.MustParseAddr("10.0.0.1"), dw.Router(topology.AS111)), comb, pool)
	dialer := client.NewDialer(pan.DialOptions{Selector: pan.NewLatencySelector(), ServerName: "bench.pan"})
	defer dialer.Close()
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS112, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}

	const chunk = 16 << 10
	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if redial {
			dialer.Invalidate()
		}
		conn, _, err := dialer.Dial(context.Background(), remote, "")
		if err != nil {
			b.Fatal(err)
		}
		s, err := conn.OpenStream()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		s.CloseWrite()
		if _, err := io.ReadFull(s, make([]byte, 1)); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkDialerReuse: repeated requests over the Dialer's pooled
// connection (one handshake amortized over all iterations).
func BenchmarkDialerReuse(b *testing.B) { panDialBench(b, false) }

// BenchmarkDialerRedial: epoch-bumped per-request re-dial — the cost the
// Dialer's connection reuse removes.
func BenchmarkDialerRedial(b *testing.B) { panDialBench(b, true) }

// fixedSelector serves a fixed ranking and ignores feedback — benchmarks
// use it to hold the adverse ranking constant across iterations.
type fixedSelector struct{ ranking []pan.Candidate }

func (f *fixedSelector) Rank(addr.IA, []*segment.Path) []pan.Candidate {
	return append([]pan.Candidate(nil), f.ranking...)
}
func (f *fixedSelector) Report(*segment.Path, pan.Outcome) {}

// benchWorld is the shared substrate of the dial/telemetry benchmarks: a
// full SCION world on a virtual auto-advancing clock.
type benchWorld struct {
	clock *netsim.SimClock
	comb  *pathdb.Combiner
	pool  *squic.CertPool
	disp  map[addr.IA]*snet.Dispatcher
	dw    *dataplane.World
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	topo, infra, reg := controlPlane(b)
	clock := netsim.NewSimClock(during)
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		b.Fatal(err)
	}
	disp := make(map[addr.IA]*snet.Dispatcher)
	for _, as := range topo.ASes() {
		disp[as.IA] = snet.NewDispatcher(dw.Router(as.IA), clock)
	}
	b.Cleanup(clock.AutoAdvance(0))
	return &benchWorld{
		clock: clock,
		comb:  pathdb.NewCombiner(reg),
		pool:  squic.NewCertPool(),
		disp:  disp,
		dw:    dw,
	}
}

func (w *benchWorld) host(ia addr.IA, ip string) *pan.Host {
	return pan.NewHost(w.disp[ia].Host(netip.MustParseAddr(ip), w.dw.Router(ia)), w.comb, w.pool)
}

// listen stands up a handshake-only server (no streams served) and returns
// its address.
func (w *benchWorld) listen(b *testing.B, ia addr.IA, ip string, port uint16, name string) addr.UDPAddr {
	b.Helper()
	server := w.host(ia, ip)
	id, err := squic.NewIdentity(name)
	if err != nil {
		b.Fatal(err)
	}
	w.pool.AddIdentity(id)
	lis, err := server.Listen(port, id)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			_ = conn // handshake-only benchmark: no streams served
		}
	}()
	return addr.UDPAddr{Addr: addr.Addr{IA: ia, Host: netip.MustParseAddr(ip)}, Port: port}
}

// asymmetricDialWorld builds a client/server pair across the ISDs (real
// path diversity and latency asymmetry) and returns everything a dial
// benchmark needs.
func asymmetricDialWorld(b *testing.B) (*netsim.SimClock, *pan.Host, addr.UDPAddr, []*segment.Path) {
	b.Helper()
	w := newBenchWorld(b)
	remote := w.listen(b, topology.AS211, "10.0.0.9", 7500, "bench.race")
	client := w.host(topology.AS111, "10.0.0.8")
	paths := client.Paths(topology.AS211)
	if len(paths) < 2 {
		b.Fatal("need path diversity")
	}
	return w.clock, client, remote, paths
}

// benchAsymmetricDial dials through a ranking whose TOP candidate is down
// (an unroutable reversed path) — the failure mode racing exists for. The
// sequential dialer burns the full handshake timeout before failing over;
// the raced dialer lets the healthy second candidate win concurrently. The
// virtms/dial metric is exact virtual time per dial and is what the
// raced-vs-sequential acceptance compares.
func benchAsymmetricDial(b *testing.B, raceWidth int) {
	clock, client, remote, paths := asymmetricDialWorld(b)
	sel := &fixedSelector{ranking: []pan.Candidate{
		{Path: paths[0].Reversed(), Compliant: true}, // top-ranked, down
		{Path: paths[0], Compliant: true},            // healthy
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:    sel,
		ServerName:  "bench.race",
		Timeout:     2 * time.Second, // virtual: the sequential failover penalty
		RaceWidth:   raceWidth,
		RaceStagger: 10 * time.Millisecond,
	})
	defer d.Close()

	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Invalidate() // force a fresh dial per iteration
		start := clock.Now()
		if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
			b.Fatal(err)
		}
		virtual += clock.Since(start)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/dial")
}

// BenchmarkDialSequential: failover burns the dead top candidate's full
// handshake timeout on every dial.
func BenchmarkDialSequential(b *testing.B) { benchAsymmetricDial(b, 0) }

// BenchmarkDialRaced: the healthy second candidate wins while the dead top
// candidate is still flailing; the loser is canceled, not awaited.
func BenchmarkDialRaced(b *testing.B) { benchAsymmetricDial(b, 2) }

// BenchmarkProberRound measures one full probe sweep over a single tracked
// destination — a handshake probe per known inter-ISD path — i.e. the
// recurring background cost of keeping one destination's rankings live
// (name kept from the PR-2 prober for trajectory continuity).
func BenchmarkProberRound(b *testing.B) {
	clock, client, remote, paths := asymmetricDialWorld(b)
	ls := pan.NewLatencySelector()
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "bench.race")
	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := clock.Now()
		monitor.RunRound()
		virtual += clock.Since(start)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/round")
	b.ReportMetric(float64(len(paths)), "paths/round")
}

// BenchmarkMonitorRound measures one telemetry-plane sweep in the shared
// configuration the monitor exists for: two destinations across both ISD-2
// branches tracked by two subscribed selector sinks, deduplicated paths,
// link decomposition included — the recurring cost of serving many dialers
// from ONE probe schedule.
func BenchmarkMonitorRound(b *testing.B) {
	w := newBenchWorld(b)
	remote1 := w.listen(b, topology.AS211, "10.0.0.9", 7500, "bench.mon")
	remote2 := w.listen(b, topology.AS221, "10.0.0.10", 7501, "bench.mon")
	client := w.host(topology.AS111, "10.0.0.8")

	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	ls1, ls2 := pan.NewLatencySelector(), pan.NewLatencySelector()
	monitor.SubscribeBatch(ls1)
	monitor.SubscribeBatch(ls2)
	monitor.Track(remote1, "bench.mon")
	monitor.Track(remote2, "bench.mon")

	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := w.clock.Now()
		monitor.RunRound()
		virtual += w.clock.Since(start)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/round")
	b.ReportMetric(float64(monitor.TrackedPaths()), "paths/round")
	b.ReportMetric(float64(len(monitor.LinkStats())), "links")
}

// BenchmarkDialAdaptive is the adaptive counterpart of BenchmarkDialRaced:
// same per-dial decision point, but with warm, fresh telemetry and a
// clearly healthy leader the adviser picks width 1 — the dial costs one
// handshake instead of RaceWidth of them. The width metric records the
// decision; virtms/dial the latency it buys.
func BenchmarkDialAdaptive(b *testing.B) {
	clock, client, remote, _ := asymmetricDialWorld(b)
	ls := pan.NewLatencySelector()
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "bench.race")
	monitor.RunRound() // warm telemetry: fresh estimates, clear leader
	monitor.Start()    // background schedule keeps it fresh across iterations
	defer monitor.Stop()
	d := client.NewDialer(pan.DialOptions{
		Selector:     ls,
		ServerName:   "bench.race",
		Timeout:      2 * time.Second,
		RaceWidth:    2,
		AdaptiveRace: true,
		Monitor:      monitor,
	})
	defer d.Close()

	var virtual time.Duration
	width := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Invalidate() // force a fresh dial per iteration
		start := clock.Now()
		if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
			b.Fatal(err)
		}
		virtual += clock.Since(start)
		width += d.LastRace().Width
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/dial")
	b.ReportMetric(float64(width)/float64(b.N), "width/dial")
}

// BenchmarkMonitorPassive measures passive-sample ingest throughput: one
// Observe call per iteration against a tracked inter-ISD destination — the
// EWMA/deviation update, churn adaptation, and per-link excess attribution
// a pooled connection's every ack RTT pays on the hot path. This must stay
// cheap: a proxy-scale deployment ingests orders of magnitude more passive
// samples than probes.
func BenchmarkMonitorPassive(b *testing.B) {
	clock, client, remote, paths := asymmetricDialWorld(b)
	_ = clock
	ls := pan.NewLatencySelector()
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "bench.race")
	base := 2 * paths[0].Meta.Latency
	// Warm once off the timer so the measured iterations are steady-state
	// ingest (series maps built, report buffer pooled), not first-sample setup.
	monitor.Observe(paths[0], base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the sample so the EWMA/deviation arithmetic does real work.
		monitor.Observe(paths[0], base+time.Duration(i%8)*time.Millisecond)
	}
	b.StopTimer()
	tel, ok := monitor.Telemetry(paths[0].Fingerprint())
	if !ok || tel.PassiveSamples != b.N+1 {
		b.Fatalf("ingested %d of %d passive samples", tel.PassiveSamples, b.N+1)
	}
}

// BenchmarkMonitorScale is the million-origin telemetry-plane benchmark:
// ~100k tracked origins spread over 1024 destination ASes (3 paths each,
// via 64 shared transit ASes), with passive samples ingested from parallel
// goroutines on the real clock while the probe wheel runs — a proxy-scale
// monitor behind one lock. ns/op is the per-sample cost on the
// squic ack hot path (target ≤1µs); allocs/op is gated in CI (steady-state
// ingest must not allocate). Setup (the 100k Tracks) happens off the timer.
func BenchmarkMonitorScale(b *testing.B) {
	const (
		ases         = 1024
		originsPerAS = 98 // ~100k origins total
		pathsPerAS   = 3
	)
	byIA := make(map[addr.IA][]*segment.Path, ases)
	all := make([]*segment.Path, 0, ases*pathsPerAS)
	src := topology.AS111
	dsts := make([]addr.IA, ases)
	for a := 0; a < ases; a++ {
		dst := addr.IA{ISD: addr.ISD(2 + a%14), AS: addr.AS(0x1_0000 + a)}
		dsts[a] = dst
		via := addr.IA{ISD: 1, AS: addr.AS(0x4000 + a%64)}
		for i := 0; i < pathsPerAS; i++ {
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
	m := pan.NewMonitor(netsim.RealClock{}, func(ia addr.IA) []*segment.Path { return byIA[ia] }, pan.MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		},
	})
	host := netip.MustParseAddr("10.3.0.1")
	for a := 0; a < ases; a++ {
		for o := 0; o < originsPerAS; o++ {
			m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dsts[a], Host: host}, Port: uint16(1024 + o)}, "scale.bench")
		}
	}
	m.Start()
	defer m.Stop()
	// Warm every path's series so the timed region measures steady-state
	// ingest, not first-sample map growth.
	for i, p := range all {
		m.Observe(p, time.Duration(16+i%8)*time.Millisecond)
	}
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
	b.ReportMetric(float64(ases*originsPerAS), "origins")
	b.ReportMetric(float64(m.TrackedPaths()), "paths")
}

// BenchmarkMonitorIngestContended is the worst case for passive ingest:
// every producer hammers paths to ONE destination AS at once, so all of
// them contend for the monitor lock. Each worker submits ack-flush-shaped
// bursts through ObserveBatch — the squic OnRTTSampleBatch delivery —
// with a selector subscribed as a BatchSink, exactly as the dialer wires
// selectors: one lock acquisition and one batched sink call per burst.
// Each op is one burst of 64 samples from every worker; ns/op therefore
// covers workers×64 samples (reported as samples/op). CI gates it at 0
// allocs/op and at an absolute ns/op ceiling.
func BenchmarkMonitorIngestContended(b *testing.B) {
	const burst = 64
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Contention needs goroutines, not cores: on a single-core runner
		// GOMAXPROCS is 1 and the scheduler still interleaves producers
		// mid-burst.
		workers = 4
	}
	src, dst := topology.AS111, topology.AS211
	byIA := make(map[addr.IA][]*segment.Path)
	paths := make([]*segment.Path, workers)
	for i := range paths {
		paths[i] = &segment.Path{
			Src: src, Dst: dst,
			Hops: []segment.Hop{
				{IA: src, Egress: addr.IfID(40 + i)},
				{IA: dst, Ingress: addr.IfID(80 + i)},
			},
			Meta: segment.Metadata{Latency: time.Duration(8+i) * time.Millisecond},
		}
	}
	byIA[dst] = paths
	m := pan.NewMonitor(netsim.RealClock{}, func(ia addr.IA) []*segment.Path { return byIA[ia] }, pan.MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		},
	})
	m.SubscribeBatch(pan.NewLatencySelector())
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}, "contended.bench")

	start := make([]chan struct{}, workers)
	stop := make(chan struct{})
	var done sync.WaitGroup
	for w := 0; w < workers; w++ {
		start[w] = make(chan struct{}, 1)
		go func(w int) {
			p := paths[w]
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
				m.ObserveBatch(p, rtts)
				done.Done()
			}
		}(w)
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
	for i := 0; i < b.N; i++ {
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

// BenchmarkDialWarmPassive is the passive counterpart of
// BenchmarkDialAdaptive: the telemetry is warmed exclusively by passive
// samples (as live traffic would), never by a single active probe, and the
// adaptive dial still collapses to width 1 — fresh passively-fed estimates
// are as good as probed ones, at zero probe budget. The probes/dial metric
// records the (zero) active cost; width/dial the race decision.
func BenchmarkDialWarmPassive(b *testing.B) {
	clock, client, remote, paths := asymmetricDialWorld(b)
	ls := pan.NewLatencySelector()
	probes := 0
	monitor := client.NewMonitor(pan.MonitorOptions{
		BaseInterval: time.Second,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			probes++
			return 0, context.DeadlineExceeded
		},
	})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "bench.race")
	warm := func() {
		for _, p := range paths {
			monitor.Observe(p, 2*p.Meta.Latency)
		}
	}
	warm()
	d := client.NewDialer(pan.DialOptions{
		Selector:     ls,
		ServerName:   "bench.race",
		Timeout:      2 * time.Second,
		RaceWidth:    2,
		AdaptiveRace: true,
		Monitor:      monitor,
		Passive:      true,
	})
	defer d.Close()

	var virtual time.Duration
	width := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Invalidate() // force a fresh dial per iteration
		warm()         // steady traffic keeps the passive estimates fresh
		start := clock.Now()
		if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
			b.Fatal(err)
		}
		virtual += clock.Since(start)
		width += d.LastRace().Width
	}
	b.StopTimer()
	if probes != 0 {
		b.Fatalf("passively-warmed dial spent %d active probes, want 0", probes)
	}
	if width != b.N {
		b.Fatalf("adaptive width averaged %.2f over passive telemetry, want 1", float64(width)/float64(b.N))
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/dial")
	b.ReportMetric(float64(width)/float64(b.N), "width/dial")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/dial")
}

// BenchmarkServerObserve measures the server half of the symmetric
// telemetry plane: one passive ack-RTT ingest attributed to the reverse path
// plus one steering evaluation (PickReverse over every known reverse path) —
// the work a serving host pays to build path health from its own traffic and
// keep replies on the monitor-ranked reverse path. The remote is a tracked
// client endpoint, exactly as ServerTelemetry tracks accepted connections.
func BenchmarkServerObserve(b *testing.B) {
	w := newBenchWorld(b)
	server := w.host(topology.AS211, "10.0.0.9")
	st := server.NewServerTelemetry(nil)
	m := st.Monitor()
	client := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.8")}, Port: 40000}
	m.Track(client, "")
	rev := server.Paths(topology.AS111)
	if len(rev) == 0 {
		b.Fatal("no reverse paths")
	}
	base := 2 * rev[0].Meta.Latency
	// One warmup iteration outside the measured region: the first pick pays
	// one-time telemetry map and reverse-path cache construction that the
	// steady state never sees again.
	m.Observe(rev[0], base)
	if _, ok := st.PickReverse(topology.AS111); !ok {
		b.Fatal("no steering pick despite fresh telemetry")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the sample so the EWMA/deviation arithmetic does real work.
		m.Observe(rev[0], base+time.Duration(i%8)*time.Millisecond)
		if _, ok := st.PickReverse(topology.AS111); !ok {
			b.Fatal("no steering pick despite fresh telemetry")
		}
	}
	b.StopTimer()
	if tel, ok := m.Telemetry(rev[0].Fingerprint()); !ok || tel.PassiveSamples != b.N+1 {
		b.Fatalf("server ingested %d of %d samples", tel.PassiveSamples, b.N+1)
	}
}

// BenchmarkSnapshotMerge measures one gossip exchange: exporting a warm
// monitor's LinkSnapshot (cache-served between ingests) and merging it into
// a cold peer — the recurring cost of link-state sharing per peer per round.
func BenchmarkSnapshotMerge(b *testing.B) {
	w := newBenchWorld(b)
	remote1 := w.listen(b, topology.AS211, "10.0.0.9", 7500, "bench.snap")
	remote2 := w.listen(b, topology.AS221, "10.0.0.10", 7501, "bench.snap")
	warmHost := w.host(topology.AS111, "10.0.0.8")
	warm := warmHost.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	warm.Track(remote1, "bench.snap")
	warm.Track(remote2, "bench.snap")
	warm.RunRound()
	cold := pan.NewMonitor(w.clock, warmHost.Paths, pan.MonitorOptions{BaseInterval: time.Second})
	applied := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := warm.ExportLinks()
		n, err := cold.ImportLinks(snap, 1)
		if err != nil {
			b.Fatal(err)
		}
		applied += n
	}
	b.ReportMetric(float64(applied)/float64(b.N), "estimates/merge")
}

// BenchmarkRouterTransit measures one end-to-end multi-hop forwarding pass
// with the flow-verified MAC cache warm (steady state of an established flow)
// versus cold (every transit router re-derives and re-verifies each hop MAC),
// isolating what the verdict cache is worth per packet.
func BenchmarkRouterTransit(b *testing.B) {
	run := func(b *testing.B, cold bool) {
		topo, infra, reg := controlPlane(b)
		clock := netsim.NewSimClock(during)
		dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		dw.Router(topology.AS211).SetDeliveryHandler(func(p *dataplane.Packet) { delivered++; p.Release() })
		paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
		tmpl, err := dataplane.TemplateFor(paths[0])
		if err != nil {
			b.Fatal(err)
		}
		routers := make([]*dataplane.Router, 0, len(paths[0].Hops))
		for _, h := range paths[0].Hops {
			routers = append(routers, dw.Router(h.IA))
		}
		pkt := &dataplane.Packet{
			Src:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1},
			Dst:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 2},
			Hops:    paths[0].Hops,
			Payload: make([]byte, 900),
		}
		// Warmup pass (pool and verifier construction) before measuring.
		if err := dw.Router(topology.AS111).InjectTemplated(pkt, tmpl); err != nil {
			b.Fatal(err)
		}
		for clock.AdvanceToNext() {
		}
		delivered = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				for _, r := range routers {
					r.InvalidateMACCache()
				}
			}
			if err := dw.Router(topology.AS111).InjectTemplated(pkt, tmpl); err != nil {
				b.Fatal(err)
			}
			for clock.AdvanceToNext() {
			}
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	}
	b.Run("warm", func(b *testing.B) { run(b, false) })
	b.Run("cold", func(b *testing.B) { run(b, true) })
}

// BenchmarkDataplaneForwarding measures router validation+forwarding of one
// packet across the full inter-ISD path (virtual network, real CPU cost).
func BenchmarkDataplaneForwarding(b *testing.B) {
	topo, infra, reg := controlPlane(b)
	clock := netsim.NewSimClock(during)
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, 1)
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	dw.Router(topology.AS211).SetDeliveryHandler(func(p *dataplane.Packet) { delivered++; p.Release() })
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	tmpl, err := dataplane.TemplateFor(paths[0])
	if err != nil {
		b.Fatal(err)
	}
	pkt := &dataplane.Packet{
		Src:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1},
		Dst:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 2},
		Hops:    paths[0].Hops,
		Payload: make([]byte, 900), // header + payload must fit the 1400 B MTU
	}
	// One warmup packet outside the measured region: the first forwarding
	// pass pays one-time MAC/key cache and buffer/packet pool construction,
	// which at CI's -benchtime=1x would otherwise drown the steady-state
	// cost the trajectory tracks.
	if err := dw.Router(topology.AS111).InjectTemplated(pkt, tmpl); err != nil {
		b.Fatal(err)
	}
	for clock.AdvanceToNext() {
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dw.Router(topology.AS111).InjectTemplated(pkt, tmpl); err != nil {
			b.Fatal(err)
		}
		// Drain the in-flight hops deterministically.
		for clock.AdvanceToNext() {
		}
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkPacketTemplate contrasts template-patched marshaling (the snet
// send path: pre-encoded hop section copied, only header/addresses/payload
// written per packet) against re-encoding the full header with Marshal.
func BenchmarkPacketTemplate(b *testing.B) {
	_, _, reg := controlPlane(b)
	paths := pathdb.NewCombiner(reg).Paths(topology.AS111, topology.AS211, during)
	pkt := &dataplane.Packet{
		Src:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS111, Host: netip.MustParseAddr("10.0.0.1")}, Port: 1},
		Dst:     addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 2},
		Hops:    paths[0].Hops,
		Payload: make([]byte, 1000),
	}
	b.Run("full", func(b *testing.B) {
		// Warm once off the timer: under -benchtime=1x the measured
		// iteration IS the first call, and cold-start work (buffer growth,
		// one-time setup) would otherwise swamp the per-packet cost.
		if _, err := pkt.Marshal(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pkt.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("templated", func(b *testing.B) {
		tmpl, err := dataplane.TemplateFor(paths[0])
		if err != nil {
			b.Fatal(err)
		}
		// Warm the buffer pool off the timer: the first MarshalTemplated
		// pays the pool's initial allocation, which under -benchtime=1x
		// made the templated path read SLOWER than full marshaling.
		if buf, err := pkt.MarshalTemplated(tmpl); err != nil {
			b.Fatal(err)
		} else {
			netsim.PutBuf(buf)
		}
		b.ReportAllocs()
		b.SetBytes(1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err := pkt.MarshalTemplated(tmpl)
			if err != nil {
				b.Fatal(err)
			}
			netsim.PutBuf(buf)
		}
	})
}

// BenchmarkStatsSummarize measures five-number summaries on a 1000-sample
// distribution.
func BenchmarkStatsSummarize(b *testing.B) {
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i * 7 % 997)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stats.Summarize(sample)
		if s.N != 1000 {
			b.Fatal("bad summary")
		}
	}
}
