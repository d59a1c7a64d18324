package pan_test

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// fakePath builds a distinct in-memory path (distinct hop sequence →
// distinct fingerprint) without a control plane.
func fakePath(dst addr.IA, i int) *segment.Path {
	return &segment.Path{
		Src: topology.AS111,
		Dst: dst,
		Hops: []segment.Hop{
			{IA: topology.AS111, Egress: addr.IfID(100 + i)},
			{IA: dst, Ingress: addr.IfID(200 + i)},
		},
		Meta: segment.Metadata{Latency: time.Duration(10+i) * time.Millisecond},
	}
}

// fakePathVia builds a path AS111 → via... → dst with a given interface
// seed, so tests control exactly which inter-AS links a path crosses.
func fakePathVia(dst addr.IA, i int, oneWay time.Duration, via ...addr.IA) *segment.Path {
	hops := []segment.Hop{{IA: topology.AS111, Egress: addr.IfID(100 + i)}}
	for j, ia := range via {
		hops = append(hops, segment.Hop{IA: ia, Ingress: addr.IfID(300 + 10*i + j), Egress: addr.IfID(400 + 10*i + j)})
	}
	hops = append(hops, segment.Hop{IA: dst, Ingress: addr.IfID(200 + i)})
	return &segment.Path{Src: topology.AS111, Dst: dst, Hops: hops, Meta: segment.Metadata{Latency: oneWay}}
}

// probeScript is a deterministic ProbeFunc: per-fingerprint queues of
// outcomes, consumed one per probe; an exhausted queue repeats its last
// entry. It records every probe (fingerprint and virtual timestamp) in
// order.
type probeScript struct {
	mu      sync.Mutex
	script  map[string][]probeOutcome
	probes  []string    // fingerprints in probe order
	stamps  []time.Time // virtual probe times, aligned with probes
	perFP   map[string]int
	clock   netsim.Clock
	elapsed func(time.Duration) // advances the virtual clock mid-probe, when set
}

type probeOutcome struct {
	rtt time.Duration
	err error
}

func (s *probeScript) fn(remote addr.UDPAddr, serverName string, path *segment.Path, timeout time.Duration) (time.Duration, error) {
	fp := path.Fingerprint()
	s.mu.Lock()
	s.probes = append(s.probes, fp)
	if s.clock != nil {
		s.stamps = append(s.stamps, s.clock.Now())
	}
	if s.perFP == nil {
		s.perFP = make(map[string]int)
	}
	n := s.perFP[fp]
	s.perFP[fp]++
	q := s.script[fp]
	s.mu.Unlock()
	if len(q) == 0 {
		return 0, fmt.Errorf("unscripted probe of %s", fp)
	}
	if n >= len(q) {
		n = len(q) - 1
	}
	out := q[n]
	if s.elapsed != nil && out.rtt > 0 {
		s.elapsed(out.rtt)
	}
	return out.rtt, out.err
}

func (s *probeScript) count(fp string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perFP[fp]
}

func (s *probeScript) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.probes)
}

func (s *probeScript) timestamps() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.stamps...)
}

// reportLog records reported outcomes per fingerprint.
type reportLog struct {
	mu  sync.Mutex
	byF map[string][]pan.Outcome
}

// ReportBatch implements pan.BatchSink.
func (r *reportLog) ReportBatch(reports []pan.SampleReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byF == nil {
		r.byF = make(map[string][]pan.Outcome)
	}
	for _, rep := range reports {
		fp := rep.Path.Fingerprint()
		r.byF[fp] = append(r.byF[fp], rep.Outcome)
	}
}

func (r *reportLog) outcomes(fp string) []pan.Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]pan.Outcome(nil), r.byF[fp]...)
}

var probeErr = errors.New("probe timeout")

func probeTarget(i int) addr.UDPAddr {
	return addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", i+2))}, Port: 443}
}

// monitorFixture is a monitor over fake paths on a bare virtual clock, with
// one tracked destination and a report sink subscribed.
func monitorFixture(t *testing.T, paths []*segment.Path, script *probeScript, opts pan.MonitorOptions) (*pan.Monitor, *netsim.SimClock, *reportLog) {
	t.Helper()
	clock := testbed.NewClock()
	script.clock = clock
	log := &reportLog{}
	opts.Probe = script.fn
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, opts)
	m.SubscribeBatch(log)
	m.Track(probeTarget(0), "probe.server")
	return m, clock, log
}

// drain advances virtual time in steps, yielding between steps so probe
// goroutines launched by timer callbacks get to run.
func drain(clock *netsim.SimClock, d, step time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		clock.Advance(step)
		// A probe runs in its own goroutine; give it real time to finish
		// before moving virtual time again.
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
	}
}

func TestMonitorReportsRTTAndFailure(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0), fakePath(topology.AS211, 1)}
	fp0, fp1 := paths[0].Fingerprint(), paths[1].Fingerprint()
	script := &probeScript{script: map[string][]probeOutcome{
		fp0: {{rtt: 80 * time.Millisecond}},
		fp1: {{err: probeErr}},
	}}
	m, clock, log := monitorFixture(t, paths, script, pan.MonitorOptions{BaseInterval: time.Second})
	m.Start()
	defer m.Stop()

	// Every path's first deadline is phase-jittered within one interval.
	drain(clock, 1100*time.Millisecond, 50*time.Millisecond)
	got := log.outcomes(fp0)
	if len(got) < 1 || got[0].Failed || got[0].Latency != 80*time.Millisecond || !got[0].Probe {
		t.Fatalf("path 0 outcomes = %+v, want a Probe success with 80ms", got)
	}
	got = log.outcomes(fp1)
	if len(got) < 1 || !got[0].Failed || !got[0].Probe {
		t.Fatalf("path 1 outcomes = %+v, want a Probe failure", got)
	}
	tel, ok := m.Telemetry(fp0)
	if !ok || tel.RTT != 80*time.Millisecond || tel.Down || !tel.Fresh || tel.Samples != 1 {
		t.Fatalf("telemetry(fp0) = %+v, %v", tel, ok)
	}
	if tel, ok := m.Telemetry(fp1); !ok || !tel.Down {
		t.Fatalf("telemetry(fp1) = %+v, want down", tel)
	}

	// Stop halts the schedule.
	m.Stop()
	before := script.total()
	drain(clock, 5*time.Second, 250*time.Millisecond)
	if n := script.total(); n != before {
		t.Fatalf("probes after Stop: %d -> %d", before, n)
	}
}

// TestMonitorJitteredScheduling is the non-burst property at proxy scale:
// 24 tracked paths across 4 destinations must NOT probe in synchronized
// rounds — their first-round probe timestamps spread over the interval.
func TestMonitorJitteredScheduling(t *testing.T) {
	perTarget := 6
	byIA := make(map[string][]*segment.Path)
	var all []*segment.Path
	script := &probeScript{script: map[string][]probeOutcome{}}
	for tgt := 0; tgt < 4; tgt++ {
		for i := 0; i < perTarget; i++ {
			p := fakePath(topology.AS211, tgt*perTarget+i)
			byIA[topology.AS211.String()] = append(byIA[topology.AS211.String()], p)
			all = append(all, p)
			script.script[p.Fingerprint()] = []probeOutcome{{rtt: 20 * time.Millisecond}}
		}
	}
	clock := testbed.NewClock()
	script.clock = clock
	m := pan.NewMonitor(clock, func(ia addr.IA) []*segment.Path { return all }, pan.MonitorOptions{
		BaseInterval: 4 * time.Second,
		ProbeBudget:  -1, // uncapped: this test isolates phase jitter
		Probe:        script.fn,
	})
	for tgt := 0; tgt < 4; tgt++ {
		m.Track(probeTarget(tgt), "probe.server")
	}
	if n := m.TrackedPaths(); n != 24 {
		t.Fatalf("tracked %d paths, want 24", n)
	}
	m.Start()
	defer m.Stop()

	// Advance in fine steps through one interval: each timer fires at its
	// exact jittered deadline.
	drain(clock, 4100*time.Millisecond, 25*time.Millisecond)
	stamps := script.timestamps()
	if len(stamps) < 24 {
		t.Fatalf("probed %d of 24 paths in the first interval", len(stamps))
	}
	byInstant := make(map[time.Time]int)
	for _, s := range stamps {
		byInstant[s]++
	}
	if len(byInstant) < 12 {
		t.Fatalf("24 probes landed on only %d distinct instants — bursty scheduling", len(byInstant))
	}
	max := 0
	for _, n := range byInstant {
		if n > max {
			max = n
		}
	}
	if max > 6 {
		t.Fatalf("probe burst: %d probes at one instant (want ≤ 6 of 24)", max)
	}
}

// TestMonitorChurnAdaptiveIntervals: a path with oscillating RTT must be
// probed more often than a flat one — deviation shortens the interval
// toward MinInterval, stability stretches it toward MaxInterval.
func TestMonitorChurnAdaptiveIntervals(t *testing.T) {
	stable := fakePath(topology.AS211, 0)
	unstable := fakePath(topology.AS211, 1)
	script := &probeScript{script: map[string][]probeOutcome{
		stable.Fingerprint(): {{rtt: 50 * time.Millisecond}},
		unstable.Fingerprint(): {
			{rtt: 50 * time.Millisecond}, {rtt: 250 * time.Millisecond},
			{rtt: 50 * time.Millisecond}, {rtt: 250 * time.Millisecond},
			{rtt: 50 * time.Millisecond}, {rtt: 250 * time.Millisecond},
		},
	}}
	m, _, _ := monitorFixture(t, []*segment.Path{stable, unstable}, script, pan.MonitorOptions{
		BaseInterval: 4 * time.Second,
	})
	for i := 0; i < 6; i++ {
		m.RunRound()
	}
	st, _ := m.Telemetry(stable.Fingerprint())
	un, _ := m.Telemetry(unstable.Fingerprint())
	if st.Interval <= 4*time.Second {
		t.Fatalf("stable path interval = %v, want stretched past the 4s base", st.Interval)
	}
	if un.Interval >= 4*time.Second {
		t.Fatalf("unstable path interval = %v, want shortened below the 4s base", un.Interval)
	}
	if un.Interval < time.Second {
		t.Fatalf("unstable interval %v fell below MinInterval (base/4)", un.Interval)
	}
	if un.Dev <= st.Dev {
		t.Fatalf("deviation: unstable %v must exceed stable %v", un.Dev, st.Dev)
	}
}

// TestMonitorProbeBudgetFloor: with many paths and a tight global budget,
// per-path intervals are floored at paths/budget — the schedule never
// exceeds the configured probes/sec.
func TestMonitorProbeBudgetFloor(t *testing.T) {
	var paths []*segment.Path
	script := &probeScript{script: map[string][]probeOutcome{}}
	for i := 0; i < 20; i++ {
		p := fakePath(topology.AS211, i)
		paths = append(paths, p)
		script.script[p.Fingerprint()] = []probeOutcome{{rtt: 30 * time.Millisecond}}
	}
	// Base interval 1s with 20 paths would be 20 probes/s; budget 2/s
	// floors every interval at 10s.
	m, clock, _ := monitorFixture(t, paths, script, pan.MonitorOptions{
		BaseInterval: time.Second,
		MaxInterval:  time.Minute,
		ProbeBudget:  2,
	})
	m.Start()
	defer m.Stop()
	drain(clock, 8*time.Second, 100*time.Millisecond)
	if n := script.total(); n > 20 {
		t.Fatalf("%d probes in 8s under a 2/s budget (20 paths, floored at one probe per 10s each)", n)
	}
	for _, p := range paths {
		if n := script.count(p.Fingerprint()); n > 1 {
			t.Fatalf("path probed %d times within one floored interval", n)
		}
	}
}

// TestMonitorFailureBackoffAndRecovery: consecutive failures stretch a
// path's interval (dead paths must not eat the budget); a recovery resets
// it to base.
func TestMonitorFailureBackoffAndRecovery(t *testing.T) {
	p := fakePath(topology.AS211, 0)
	fp := p.Fingerprint()
	script := &probeScript{script: map[string][]probeOutcome{
		fp: {{err: probeErr}, {err: probeErr}, {rtt: 40 * time.Millisecond}},
	}}
	m, _, log := monitorFixture(t, []*segment.Path{p}, script, pan.MonitorOptions{BaseInterval: 2 * time.Second})
	m.RunRound()
	tel, _ := m.Telemetry(fp)
	if !tel.Down || tel.Interval != 4*time.Second {
		t.Fatalf("after 1 failure: %+v, want down with doubled interval", tel)
	}
	m.RunRound()
	tel, _ = m.Telemetry(fp)
	if tel.Interval != 8*time.Second {
		t.Fatalf("after 2 failures: interval %v, want 8s (max)", tel.Interval)
	}
	m.RunRound()
	tel, _ = m.Telemetry(fp)
	if tel.Down || tel.Interval != 2*time.Second || tel.RTT != 40*time.Millisecond {
		t.Fatalf("after recovery: %+v, want live at base interval", tel)
	}
	got := log.outcomes(fp)
	if len(got) != 3 || !got[0].Failed || !got[1].Failed || got[2].Failed {
		t.Fatalf("outcomes = %+v, want fail, fail, success", got)
	}
}

// TestMonitorRefcountedTracking: a destination tracked by two parties is
// probed once and survives the first Untrack; only the last Untrack clears
// the schedule (the shared-plane contract several dialers rely on).
func TestMonitorRefcountedTracking(t *testing.T) {
	p := fakePath(topology.AS211, 0)
	fp := p.Fingerprint()
	script := &probeScript{script: map[string][]probeOutcome{fp: {{rtt: 15 * time.Millisecond}}}}
	m, _, _ := monitorFixture(t, []*segment.Path{p}, script, pan.MonitorOptions{BaseInterval: time.Second})
	// Second tracker of the same destination (the fixture added the first).
	m.Track(probeTarget(0), "probe.server")
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("TargetCount = %d, want 1 (refcounted, not duplicated)", n)
	}
	m.RunRound()
	if n := script.count(fp); n != 1 {
		t.Fatalf("dual-tracked destination probed %d times per round", n)
	}
	m.Untrack(probeTarget(0), "probe.server")
	if n := m.TargetCount(); n != 1 {
		t.Fatal("first Untrack must not clear a destination another party tracks")
	}
	m.RunRound()
	if n := script.count(fp); n != 2 {
		t.Fatalf("still-tracked destination not probed: %d", n)
	}
	m.Untrack(probeTarget(0), "probe.server")
	if n, e := m.TargetCount(), m.TrackedPaths(); n != 0 || e != 0 {
		t.Fatalf("after last Untrack: %d targets, %d paths, want 0/0", n, e)
	}
	m.RunRound()
	if n := script.total(); n != 2 {
		t.Fatalf("untracked destination still probed: %d total", n)
	}
}

// TestMonitorLinkAttribution: the min-across-paths decomposition blames
// exactly the link all degraded paths share, and exonerates links that any
// clean path crosses.
func TestMonitorLinkAttribution(t *testing.T) {
	// hotA and hotB share the 120→210 link and both run 80ms of excess;
	// clean crosses 110→210 (and the shared endpoints' leaf links) at its
	// metadata baseline.
	hotA := fakePathVia(topology.AS211, 0, 45*time.Millisecond, topology.Core110, topology.Core120, topology.Core210)
	hotB := fakePathVia(topology.AS211, 1, 46*time.Millisecond, topology.Core120, topology.Core210)
	clean := fakePathVia(topology.AS211, 2, 60*time.Millisecond, topology.Core110, topology.Core210)
	script := &probeScript{script: map[string][]probeOutcome{
		hotA.Fingerprint():  {{rtt: 90*time.Millisecond + 80*time.Millisecond}},
		hotB.Fingerprint():  {{rtt: 92*time.Millisecond + 80*time.Millisecond}},
		clean.Fingerprint(): {{rtt: 120 * time.Millisecond}},
	}}
	m, _, _ := monitorFixture(t, []*segment.Path{hotA, hotB, clean}, script, pan.MonitorOptions{BaseInterval: time.Second})
	m.RunRound()
	m.RunRound()

	stats := m.LinkStats()
	find := func(a, b addr.IA) (pan.LinkStat, bool) {
		for _, s := range stats {
			if (s.A == a && s.B == b) || (s.A == b && s.B == a) {
				return s, true
			}
		}
		return pan.LinkStat{}, false
	}
	hot, ok := find(topology.Core120, topology.Core210)
	if !ok || hot.Congestion < 70*time.Millisecond {
		t.Fatalf("shared hot link 120-210 = %+v, want ~80ms excess", hot)
	}
	if hot.Sharers != 2 {
		t.Fatalf("hot link sharers = %d, want 2", hot.Sharers)
	}
	// 110-210 is crossed only by the clean path: exonerated.
	if cool, ok := find(topology.Core110, topology.Core210); ok && cool.Congestion > 5*time.Millisecond {
		t.Fatalf("clean 110-210 link blamed: %+v", cool)
	}
	// AS111's uplink toward 110 is crossed by hotA AND clean — the clean
	// series exonerates it (min across paths).
	if up, ok := find(topology.AS111, topology.Core110); ok && up.Congestion > 5*time.Millisecond {
		t.Fatalf("shared-but-exonerated 111-110 link blamed: %+v", up)
	}
	// Penalties follow: hot paths pay, the clean path doesn't.
	if pA, pC := m.PathPenalty(hotA), m.PathPenalty(clean); pA < 70*time.Millisecond || pC > 10*time.Millisecond {
		t.Fatalf("penalties: hot %v clean %v", pA, pC)
	}
}

// TestMonitorFeedsSubscribedSelectors closes the shared-plane loop: one
// monitor's probe outcomes re-rank every subscribed selector.
func TestMonitorFeedsSubscribedSelectors(t *testing.T) {
	// Metadata says path 0 is fastest; live probes say path 1 is.
	paths := []*segment.Path{fakePath(topology.AS211, 0), fakePath(topology.AS211, 1)}
	fp1 := paths[1].Fingerprint()
	script := &probeScript{script: map[string][]probeOutcome{
		paths[0].Fingerprint(): {{rtt: 500 * time.Millisecond}},
		fp1:                    {{rtt: 5 * time.Millisecond}},
	}}
	clock := testbed.NewClock()
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		BaseInterval: time.Second, Probe: script.fn,
	})
	ls1, ls2 := pan.NewLatencySelector(), pan.NewLatencySelector()
	m.SubscribeBatch(ls1)
	unsub := m.SubscribeBatch(ls2)
	m.Track(probeTarget(0), "probe.server")

	if before := ls1.Rank(topology.AS211, paths); before[0].Path != paths[0] {
		t.Fatal("metadata ranking should prefer path 0")
	}
	m.RunRound()
	for i, ls := range []*pan.LatencySelector{ls1, ls2} {
		if after := ls.Rank(topology.AS211, paths); after[0].Path != paths[1] {
			t.Fatalf("selector %d not re-ranked by shared probes", i+1)
		}
	}
	// An unsubscribed sink stops receiving.
	unsub()
	script.mu.Lock()
	script.script[fp1] = []probeOutcome{{rtt: 600 * time.Millisecond}}
	script.perFP = nil
	script.mu.Unlock()
	m.RunRound()
	h1, _ := healthFor(ls1, fp1)
	h2, _ := healthFor(ls2, fp1)
	if h1.RTT == h2.RTT {
		t.Fatalf("unsubscribed selector still updated: ls1 %v ls2 %v", h1.RTT, h2.RTT)
	}
}

func healthFor(s pan.HealthExporter, fp string) (pan.PathHealth, bool) {
	for _, h := range s.PathHealth() {
		if h.Fingerprint == fp {
			return h, true
		}
	}
	return pan.PathHealth{}, false
}

// TestProbeOutcomesDoNotAdvanceRoundRobin: probe telemetry must feed
// health/latency without counting as served traffic — rotation advances on
// reported USE only.
func TestProbeOutcomesDoNotAdvanceRoundRobin(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0), fakePath(topology.AS211, 1)}
	rr := pan.NewRoundRobinSelector(nil)
	first := rr.Rank(topology.AS211, paths)[0].Path

	// A whole probe round's worth of successes: rotation must not move.
	rr.Report(paths[0], pan.Outcome{Latency: 10 * time.Millisecond, Probe: true})
	rr.Report(paths[1], pan.Outcome{Latency: 20 * time.Millisecond, Probe: true})
	if got := rr.Rank(topology.AS211, paths)[0].Path; got != first {
		t.Fatal("probe outcomes advanced the round-robin rotation")
	}
	// A real use does.
	rr.Report(first, pan.Success)
	if got := rr.Rank(topology.AS211, paths)[0].Path; got == first {
		t.Fatal("served traffic must advance the rotation")
	}
	// A failed probe still demotes the path.
	rr.Report(paths[0], pan.Outcome{Failed: true, Probe: true})
	if got := rr.Rank(topology.AS211, paths)[0].Path; got != paths[1] {
		t.Fatal("failed probe must demote the path in the rotation")
	}
}

// TestAdviseRaceWidth is the table-driven contract of adaptive racing over
// (fresh+spread, fresh+close, stale, …) telemetry states.
func TestAdviseRaceWidth(t *testing.T) {
	fresh := func(rtt, dev time.Duration) pan.PathTelemetry {
		return pan.PathTelemetry{RTT: rtt, Dev: dev, Samples: 5, Fresh: true}
	}
	stale := func(rtt time.Duration) pan.PathTelemetry {
		return pan.PathTelemetry{RTT: rtt, Samples: 5, Fresh: false}
	}
	down := pan.PathTelemetry{Samples: 3, Down: true, Fresh: true}
	unknown := pan.PathTelemetry{}

	cases := []struct {
		name   string
		tels   []pan.PathTelemetry
		max    int
		width  int
		reason string
	}{
		{
			name:   "fresh leader, clear spread: no racing",
			tels:   []pan.PathTelemetry{fresh(100*time.Millisecond, 2*time.Millisecond), fresh(200*time.Millisecond, 2*time.Millisecond), fresh(300*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  1,
			reason: "clear-leader",
		},
		{
			name:   "fresh but close contenders: race them",
			tels:   []pan.PathTelemetry{fresh(100*time.Millisecond, 2*time.Millisecond), fresh(105*time.Millisecond, 2*time.Millisecond), fresh(400*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  2,
			reason: "close-contenders",
		},
		{
			name:   "stale leader: full width",
			tels:   []pan.PathTelemetry{stale(100 * time.Millisecond), fresh(200*time.Millisecond, time.Millisecond), fresh(300*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  3,
			reason: "stale-leader",
		},
		{
			name:   "no leader telemetry: full width",
			tels:   []pan.PathTelemetry{unknown, unknown, unknown},
			max:    3,
			width:  3,
			reason: "no-leader-telemetry",
		},
		{
			name:   "leader down: full width",
			tels:   []pan.PathTelemetry{down, fresh(200*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  2,
			reason: "leader-down",
		},
		{
			name:   "high leader variance widens the close band",
			tels:   []pan.PathTelemetry{fresh(100*time.Millisecond, 40*time.Millisecond), fresh(170*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  2,
			reason: "close-contenders",
		},
		{
			name: "unstable follower judged on its pessimistic estimate",
			// Mean below the leader, but RTT+2·Dev far above: not raced.
			tels:   []pan.PathTelemetry{fresh(250*time.Millisecond, time.Millisecond), fresh(220*time.Millisecond, 40*time.Millisecond)},
			max:    3,
			width:  1,
			reason: "clear-leader",
		},
		{
			name:   "fresh down follower is not raced",
			tels:   []pan.PathTelemetry{fresh(100*time.Millisecond, 2*time.Millisecond), down, fresh(104*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  2,
			reason: "close-contenders",
		},
		{
			name:   "unknown follower cannot be ruled out",
			tels:   []pan.PathTelemetry{fresh(100*time.Millisecond, 2*time.Millisecond), unknown, fresh(500*time.Millisecond, time.Millisecond)},
			max:    3,
			width:  2,
			reason: "unknown-contenders",
		},
		{
			name:   "width capped at max",
			tels:   []pan.PathTelemetry{stale(100 * time.Millisecond), unknown, unknown, unknown, unknown},
			max:    2,
			width:  2,
			reason: "stale-leader",
		},
		{
			name:   "single candidate never races",
			tels:   []pan.PathTelemetry{unknown},
			max:    4,
			width:  1,
			reason: "single-candidate",
		},
	}
	for _, tc := range cases {
		w, reason := pan.AdviseRaceWidth(tc.tels, tc.max)
		if w != tc.width || reason != tc.reason {
			t.Errorf("%s: AdviseRaceWidth = %d (%s), want %d (%s)", tc.name, w, reason, tc.width, tc.reason)
		}
	}
}

// TestHotspotSelectorRanksAroundSharedHotLink: the unit-level version of
// the hotspot e2e — end-to-end EWMAs alone keep the degraded path first,
// the link penalty flips the ranking.
func TestHotspotSelectorRanksAroundSharedHotLink(t *testing.T) {
	hotA := fakePathVia(topology.AS211, 0, 45*time.Millisecond, topology.Core120, topology.Core210)
	hotB := fakePathVia(topology.AS211, 1, 46*time.Millisecond, topology.Core120, topology.Core210)
	clean := fakePathVia(topology.AS211, 2, 80*time.Millisecond, topology.Core110, topology.Core210)
	paths := []*segment.Path{hotA, hotB, clean}
	// The shared link oscillates: the hot paths' RTT alternates between
	// baseline (~90ms) and +100ms, so their EWMA mean (~140ms, peaking at
	// ~147ms) stays BELOW the clean path's steady 160ms — a pure latency
	// ranking keeps picking them.
	script := &probeScript{script: map[string][]probeOutcome{
		hotA.Fingerprint():  {{rtt: 90 * time.Millisecond}, {rtt: 190 * time.Millisecond}},
		hotB.Fingerprint():  {{rtt: 92 * time.Millisecond}, {rtt: 192 * time.Millisecond}},
		clean.Fingerprint(): {{rtt: 160 * time.Millisecond}},
	}}
	clock := testbed.NewClock()
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		BaseInterval: time.Second, Probe: script.fn,
	})
	hs := pan.NewHotspotSelector(m)
	ls := pan.NewLatencySelector()
	m.SubscribeBatch(hs)
	m.SubscribeBatch(ls)
	m.Track(probeTarget(0), "probe.server")

	for i := 0; i < 6; i++ {
		// Alternate the scripted halves: even rounds baseline, odd +100ms.
		script.mu.Lock()
		phase := i % 2
		script.perFP = map[string]int{hotA.Fingerprint(): phase, hotB.Fingerprint(): phase}
		script.mu.Unlock()
		m.RunRound()
	}
	if got := ls.Rank(topology.AS211, paths)[0]; got.Path == clean {
		t.Fatal("latency EWMA alone should still prefer a degraded path (mean < clean RTT)")
	}
	if got := hs.Rank(topology.AS211, paths)[0]; got.Path != clean {
		t.Fatalf("hotspot ranking picked %s, want the clean path around the shared hot link", got.Path)
	}
}

// TestMonitorDropsVanishedPaths: when the control plane withdraws a path
// (expiry, turnover), the next sync retires its schedule — a long-lived
// monitor must not probe ghosts forever.
func TestMonitorDropsVanishedPaths(t *testing.T) {
	keep := fakePath(topology.AS211, 0)
	gone := fakePath(topology.AS211, 1)
	script := &probeScript{script: map[string][]probeOutcome{
		keep.Fingerprint(): {{rtt: 20 * time.Millisecond}},
		gone.Fingerprint(): {{rtt: 30 * time.Millisecond}},
	}}
	var mu sync.Mutex
	current := []*segment.Path{keep, gone}
	clock := testbed.NewClock()
	script.clock = clock
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path {
		mu.Lock()
		defer mu.Unlock()
		return current
	}, pan.MonitorOptions{BaseInterval: time.Second, Probe: script.fn})
	m.Track(probeTarget(0), "probe.server")
	m.RunRound()
	if n := m.TrackedPaths(); n != 2 {
		t.Fatalf("tracked %d paths, want 2", n)
	}

	mu.Lock()
	current = []*segment.Path{keep}
	mu.Unlock()
	m.RunRound() // the round's target sync reconciles against the new set
	if n := m.TrackedPaths(); n != 1 {
		t.Fatalf("withdrawn path still scheduled: %d tracked", n)
	}
	m.RunRound()
	if n := script.count(gone.Fingerprint()); n > 2 {
		t.Fatalf("withdrawn path probed %d times", n)
	}
	if n := script.count(keep.Fingerprint()); n != 3 {
		t.Fatalf("surviving path probed %d times, want every round", n)
	}
	// Its telemetry is retained for a grace horizon (a re-advertised path
	// must not restart from zero), just no longer scheduled.
	if _, ok := m.Telemetry(gone.Fingerprint()); !ok {
		t.Fatal("withdrawn path's telemetry dropped immediately")
	}
}

// TestMonitorObserveMatchesProbePipeline: a passive sample stream must land
// in exactly the telemetry an identical probe stream produces — same EWMA,
// same deviation, same sample count, same link attribution — differing only
// in the passive/probe marking of the outcomes and counters.
func TestMonitorObserveMatchesProbePipeline(t *testing.T) {
	clock := testbed.NewClock()
	samples := []time.Duration{100 * time.Millisecond, 180 * time.Millisecond, 60 * time.Millisecond}

	// Two monitors on one clock: one fed by probes, one fed by Observe.
	// Identical metadata latency (45ms one-way) so excess attribution
	// matches; distinct interface seeds so the paths are distinct.
	probed := fakePathVia(topology.AS211, 0, 45*time.Millisecond, topology.Core120, topology.Core210)
	observed := fakePathVia(topology.AS211, 1, 45*time.Millisecond, topology.Core120, topology.Core210)
	script := &probeScript{script: map[string][]probeOutcome{probed.Fingerprint(): {
		{rtt: samples[0]}, {rtt: samples[1]}, {rtt: samples[2]},
	}}}
	mProbe := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{probed} }, pan.MonitorOptions{
		BaseInterval: time.Second, Probe: script.fn,
	})
	mProbe.Track(probeTarget(0), "probe.server")
	mPassive := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{observed} }, pan.MonitorOptions{
		BaseInterval: time.Second, Probe: script.fn,
	})
	log := &reportLog{}
	mPassive.SubscribeBatch(log)
	mPassive.Track(probeTarget(0), "probe.server")

	for _, rtt := range samples {
		mProbe.RunRound()
		mPassive.Observe(observed, rtt)
	}

	pt, ok1 := mProbe.Telemetry(probed.Fingerprint())
	ot, ok2 := mPassive.Telemetry(observed.Fingerprint())
	if !ok1 || !ok2 {
		t.Fatalf("telemetry missing: probe %v passive %v", ok1, ok2)
	}
	if pt.RTT != ot.RTT || pt.Dev != ot.Dev || pt.Samples != ot.Samples || pt.Interval != ot.Interval {
		t.Fatalf("passive pipeline diverged from probe pipeline:\n  probe   %+v\n  passive %+v", pt, ot)
	}
	if pt.PassiveSamples != 0 || ot.PassiveSamples != len(samples) {
		t.Fatalf("passive split: probe-fed %d, observe-fed %d, want 0 and %d", pt.PassiveSamples, ot.PassiveSamples, len(samples))
	}
	if !ot.Fresh {
		t.Fatal("passive samples must refresh staleness")
	}
	// Link attribution went through the same decomposition.
	if pp, op := mProbe.PathPenalty(probed), mPassive.PathPenalty(observed); pp != op {
		t.Fatalf("link penalties diverged: probe %v passive %v", pp, op)
	}
	// Outcomes fan out marked passive, never as probes.
	got := log.outcomes(observed.Fingerprint())
	if len(got) != len(samples) {
		t.Fatalf("sinks saw %d passive outcomes, want %d", len(got), len(samples))
	}
	for i, o := range got {
		if o.Probe || !o.Passive || o.Failed || o.Latency != samples[i] {
			t.Fatalf("passive outcome %d = %+v, want Passive latency %v", i, o, samples[i])
		}
	}
	// The per-destination split mirrors it.
	if split, ok := mPassive.TargetSamples(probeTarget(0), "probe.server"); !ok || split.Passive != len(samples) || split.Probes != 0 {
		t.Fatalf("TargetSamples = %+v, %v; want %d passive / 0 probes", split, ok, len(samples))
	}
}

// TestMonitorObserveSuppressesScheduledProbes is the budget-prioritization
// contract: a path with continuous passive samples keeps re-arming its next
// scheduled probe and stays fresh at (near-)zero probe cost, while an idle
// path keeps its full schedule.
func TestMonitorObserveSuppressesScheduledProbes(t *testing.T) {
	busy := fakePath(topology.AS211, 0)
	idle := fakePath(topology.AS211, 1)
	script := &probeScript{script: map[string][]probeOutcome{
		busy.Fingerprint(): {{rtt: 40 * time.Millisecond}},
		idle.Fingerprint(): {{rtt: 60 * time.Millisecond}},
	}}
	m, clock, _ := monitorFixture(t, []*segment.Path{busy, idle}, script, pan.MonitorOptions{
		BaseInterval: 4 * time.Second,
		MaxInterval:  4 * time.Second, // pin the idle cadence for exact counting
	})
	m.Start()
	defer m.Stop()

	// 24s of traffic on the busy path: one passive sample per second,
	// starting before the first phase-jittered deadline (>= iv/8 = 500ms)
	// can fire.
	for i := 0; i < 24; i++ {
		m.Observe(busy, 40*time.Millisecond)
		drain(clock, time.Second, 100*time.Millisecond)
	}

	if n := script.count(busy.Fingerprint()); n != 0 {
		t.Fatalf("busy path probed %d times despite continuous passive samples", n)
	}
	if n := script.count(idle.Fingerprint()); n < 4 {
		t.Fatalf("idle path probed only %d times in 24s at a 4s interval", n)
	}
	tel, ok := m.Telemetry(busy.Fingerprint())
	if !ok || !tel.Fresh || tel.RTT != 40*time.Millisecond {
		t.Fatalf("busy telemetry = %+v, %v; want fresh 40ms with zero probes", tel, ok)
	}
	if tel.PassiveSamples != tel.Samples || tel.Samples < 20 {
		t.Fatalf("busy samples = %d (%d passive), want all-passive >= 20", tel.Samples, tel.PassiveSamples)
	}

	// Traffic stops: the schedule keeps firing and, once the last passive
	// sample has aged past the interval, active probing resumes — within
	// two intervals at worst (a fire landing just inside the freshness
	// window skips once more). Suppression must never strand a path.
	drain(clock, 10*time.Second, 100*time.Millisecond)
	if n := script.count(busy.Fingerprint()); n == 0 {
		t.Fatal("probing never resumed after passive traffic stopped")
	}
}

// TestMonitorObserveUntrackedPathDropped: passive samples must not create or
// refresh telemetry for paths nothing tracks — tracking is the scheduling
// contract.
func TestMonitorObserveUntrackedPathDropped(t *testing.T) {
	tracked := fakePath(topology.AS211, 0)
	stranger := fakePath(topology.AS211, 1) // never offered by the paths func
	script := &probeScript{script: map[string][]probeOutcome{
		tracked.Fingerprint(): {{rtt: 50 * time.Millisecond}},
	}}
	m, _, log := monitorFixture(t, []*segment.Path{tracked}, script, pan.MonitorOptions{BaseInterval: time.Second})

	m.Observe(stranger, 10*time.Millisecond)
	if _, ok := m.Telemetry(stranger.Fingerprint()); ok {
		t.Fatal("Observe created telemetry for an untracked path")
	}
	if got := log.outcomes(stranger.Fingerprint()); len(got) != 0 {
		t.Fatalf("untracked passive sample fanned out: %+v", got)
	}

	// A retired entry (telemetry kept, schedule dropped) is equally off
	// limits: its knowledge may be kept, but passive data must not keep
	// refreshing a destination nothing dials.
	m.RunRound()
	m.Untrack(probeTarget(0), "probe.server")
	before, _ := m.Telemetry(tracked.Fingerprint())
	m.Observe(tracked, 10*time.Millisecond)
	after, _ := m.Telemetry(tracked.Fingerprint())
	if after.Samples != before.Samples || after.RTT != before.RTT {
		t.Fatalf("Observe refreshed a retired entry: %+v -> %+v", before, after)
	}
	if got := log.outcomes(tracked.Fingerprint()); len(got) != 1 {
		t.Fatalf("retired-path passive sample fanned out: %d outcomes", len(got))
	}
}

// TestMonitorStopRestartMidProbe is the stuck-probing regression test: a
// probe still on the wire while the monitor is stopped and restarted must
// neither latch the path out of the schedule nor lose its deadline —
// probing resumes after the drain.
func TestMonitorStopRestartMidProbe(t *testing.T) {
	p := fakePath(topology.AS211, 0)
	fp := p.Fingerprint()
	clock := testbed.NewClock()
	gate := make(chan struct{})
	launched := make(chan struct{}, 16)
	var mu sync.Mutex
	probes := 0
	probe := func(remote addr.UDPAddr, serverName string, path *segment.Path, timeout time.Duration) (time.Duration, error) {
		mu.Lock()
		probes++
		first := probes == 1
		mu.Unlock()
		launched <- struct{}{}
		if first {
			<-gate // hold the first probe in flight across Stop/Start
		}
		return 30 * time.Millisecond, nil
	}
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{p} }, pan.MonitorOptions{
		BaseInterval: time.Second, Probe: probe,
	})
	m.Track(probeTarget(0), "probe.server")
	m.Start()
	defer m.Stop()

	// Advance until the first scheduled probe is in flight.
	for i := 0; i < 40; i++ {
		clock.Advance(100 * time.Millisecond)
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
		select {
		case <-launched:
			i = 40
		default:
		}
	}
	mu.Lock()
	inFlight := probes == 1
	mu.Unlock()
	if !inFlight {
		t.Fatal("first probe never launched")
	}

	m.Stop()
	m.Start()
	close(gate) // the held probe drains after the restart
	//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
	time.Sleep(5 * time.Millisecond)

	// Probing must resume: the drained probe (or Start) re-armed the
	// schedule, and later deadlines keep firing.
	drain(clock, 5*time.Second, 100*time.Millisecond)
	mu.Lock()
	total := probes
	mu.Unlock()
	if total < 3 {
		t.Fatalf("probing did not resume after stop/restart mid-probe: %d probes total", total)
	}
	if tel, ok := m.Telemetry(fp); !ok || tel.Samples == 0 {
		t.Fatalf("telemetry after resume = %+v, %v", tel, ok)
	}
}
