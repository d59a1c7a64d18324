package pan_test

import (
	"errors"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// snapshotFixture is a monitor pair over one shared fake path set: a "warm"
// exporter and a "cold" importer, each on its own virtual clock (snapshots
// carry ages, not timestamps, so clocks need not agree).
func snapshotFixture(t *testing.T, paths []*segment.Path, opts pan.MonitorOptions) (warm, cold *pan.Monitor, warmClock, coldClock *netsim.SimClock, probes *probeScript) {
	t.Helper()
	warmClock, coldClock = testbed.NewClock(), testbed.NewClock()
	probes = &probeScript{script: map[string][]probeOutcome{}}
	pathsFn := func(addr.IA) []*segment.Path { return paths }
	warmOpts := opts
	warmOpts.Probe = probes.fn
	warm = pan.NewMonitor(warmClock, pathsFn, warmOpts)
	coldOpts := opts
	coldOpts.Probe = func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
		t.Error("cold monitor issued an active probe")
		return 0, probeErr
	}
	cold = pan.NewMonitor(coldClock, pathsFn, coldOpts)
	return warm, cold, warmClock, coldClock, probes
}

func candidatesOf(paths []*segment.Path) []pan.Candidate {
	out := make([]pan.Candidate, len(paths))
	for i, p := range paths {
		out[i] = pan.Candidate{Path: p, Compliant: true}
	}
	return out
}

// TestSnapshotWarmStart is the core of link-state sharing: a cold monitor
// importing a warm peer's snapshot advises width-1 adaptive racing
// immediately — without a single local probe — and its telemetry is flagged
// as imported.
func TestSnapshotWarmStart(t *testing.T) {
	paths := []*segment.Path{
		fakePath(topology.AS211, 0), // 10ms metadata
		fakePath(topology.AS211, 1),
		fakePath(topology.AS211, 2),
	}
	warm, cold, _, _, probes := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	probes.script[paths[0].Fingerprint()] = []probeOutcome{{rtt: 40 * time.Millisecond}}
	probes.script[paths[1].Fingerprint()] = []probeOutcome{{rtt: 90 * time.Millisecond}}
	probes.script[paths[2].Fingerprint()] = []probeOutcome{{rtt: 120 * time.Millisecond}}

	warm.Track(probeTarget(0), "probe.server")
	for i := 0; i < 3; i++ {
		warm.RunRound()
	}
	snap := warm.ExportLinks()
	if len(snap.Paths) != 3 {
		t.Fatalf("export carries %d paths, want 3: %+v", len(snap.Paths), snap.Paths)
	}

	applied, err := cold.ImportLinks(snap, 1)
	if err != nil || applied == 0 {
		t.Fatalf("import: applied=%d err=%v", applied, err)
	}
	tel, ok := cold.Telemetry(paths[0].Fingerprint())
	if !ok {
		t.Fatal("no imported telemetry for the leader path")
	}
	if !tel.Imported || tel.Samples == 0 || !tel.Fresh {
		t.Fatalf("imported telemetry = %+v, want fresh imported prior", tel)
	}
	if tel.RTT != 40*time.Millisecond {
		t.Fatalf("imported RTT = %v, want the peer's 40ms estimate", tel.RTT)
	}

	// The cold monitor's race advice collapses to width 1 on the imported
	// priors alone: the whole point of the warm start.
	width, reason := cold.RaceWidth(candidatesOf(paths), 3)
	if width != 1 || reason != "clear-leader" {
		t.Fatalf("cold race advice = %d (%s), want width 1 clear-leader", width, reason)
	}
}

// TestSnapshotAgeDecay: imported estimates carry their age, scaled up by
// distrust (weight < 1 ages them faster), and a stale import cannot justify
// narrow racing.
func TestSnapshotAgeDecay(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0), fakePath(topology.AS211, 1)}
	warm, cold, warmClock, _, probes := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	probes.script[paths[0].Fingerprint()] = []probeOutcome{{rtt: 40 * time.Millisecond}}
	probes.script[paths[1].Fingerprint()] = []probeOutcome{{rtt: 90 * time.Millisecond}}
	warm.Track(probeTarget(0), "probe.server")
	warm.RunRound()

	// Age the estimates 2s before exporting. At weight 1 they are still
	// fresh on the importer (freshness horizon 2·interval + timeout = 3s);
	// at weight 0.5 the same snapshot imports as 4s old — stale.
	warmClock.Advance(2 * time.Second)
	snap := warm.ExportLinks()

	if _, err := cold.ImportLinks(snap, 1); err != nil {
		t.Fatal(err)
	}
	if width, reason := cold.RaceWidth(candidatesOf(paths), 2); width != 1 {
		t.Fatalf("trusted fresh import advised width %d (%s), want 1", width, reason)
	}

	_, cold2, _, _, _ := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	if _, err := cold2.ImportLinks(snap, 0.5); err != nil {
		t.Fatal(err)
	}
	tel, ok := cold2.Telemetry(paths[0].Fingerprint())
	if !ok || tel.Fresh {
		t.Fatalf("half-trusted 2s-old import should be stale (aged 4s), got %+v (ok=%v)", tel, ok)
	}
	if width, reason := cold2.RaceWidth(candidatesOf(paths), 2); width != 2 || reason != "stale-leader" {
		t.Fatalf("stale import advised width %d (%s), want 2 stale-leader", width, reason)
	}
}

// TestSnapshotLiveOverridesImport: the first live sample REPLACES an
// imported prior outright — no blending with a peer's estimate.
func TestSnapshotLiveOverridesImport(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0)}
	warm, cold, _, _, probes := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	probes.script[paths[0].Fingerprint()] = []probeOutcome{{rtt: 40 * time.Millisecond}}
	warm.Track(probeTarget(0), "probe.server")
	for i := 0; i < 3; i++ {
		warm.RunRound() // several samples so the imported count is > 1
	}
	if _, err := cold.ImportLinks(warm.ExportLinks(), 1); err != nil {
		t.Fatal(err)
	}

	// A live passive sample lands (the destination must be tracked for
	// Observe to accept it).
	cold.Track(probeTarget(0), "probe.server")
	cold.Observe(paths[0], 200*time.Millisecond)
	tel, ok := cold.Telemetry(paths[0].Fingerprint())
	if !ok {
		t.Fatal("telemetry vanished")
	}
	if tel.Imported {
		t.Fatalf("live sample left the prior flag set: %+v", tel)
	}
	if tel.Samples != 1 || tel.RTT != 200*time.Millisecond {
		t.Fatalf("live sample blended with the import: %+v, want a clean reset to 1 sample @200ms", tel)
	}

	// And a re-import must NOT overwrite live telemetry.
	if _, err := cold.ImportLinks(warm.ExportLinks(), 1); err != nil {
		t.Fatal(err)
	}
	tel, _ = cold.Telemetry(paths[0].Fingerprint())
	if tel.Imported || tel.RTT != 200*time.Millisecond {
		t.Fatalf("re-import overwrote live telemetry: %+v", tel)
	}
}

// TestSnapshotRejectsMalformed: wrong versions, structurally invalid
// entries, and out-of-range weights are rejected with an error and provably
// mutate nothing — including snapshots that mix valid and invalid entries.
func TestSnapshotRejectsMalformed(t *testing.T) {
	paths := []*segment.Path{fakePathVia(topology.AS211, 0, 10*time.Millisecond, topology.Core110)}
	_, cold, _, _, _ := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	fp := paths[0].Fingerprint()

	goodLink := pan.LinkExport{A: topology.AS111, B: topology.Core110, Congestion: 50 * time.Millisecond, Sharers: 1}
	goodPath := pan.PathExport{Dst: topology.AS211, Fingerprint: fp, RTT: 80 * time.Millisecond, Samples: 3}
	cases := []struct {
		name   string
		snap   pan.LinkSnapshot
		weight float64
		want   error
	}{
		{"bad version", pan.LinkSnapshot{Version: 99, Paths: []pan.PathExport{goodPath}}, 1, pan.ErrSnapshotVersion},
		{"zero weight", pan.LinkSnapshot{Version: 1, Paths: []pan.PathExport{goodPath}}, 0, pan.ErrSnapshotWeight},
		{"excess weight", pan.LinkSnapshot{Version: 1, Paths: []pan.PathExport{goodPath}}, 1.5, pan.ErrSnapshotWeight},
		{"self link", pan.LinkSnapshot{Version: 1,
			Links: []pan.LinkExport{{A: topology.AS111, B: topology.AS111, Congestion: time.Millisecond}}}, 1, pan.ErrSnapshotMalformed},
		{"negative congestion", pan.LinkSnapshot{Version: 1,
			Links: []pan.LinkExport{{A: topology.AS111, B: topology.Core110, Congestion: -time.Millisecond}}}, 1, pan.ErrSnapshotMalformed},
		{"negative rtt", pan.LinkSnapshot{Version: 1,
			Paths: []pan.PathExport{{Dst: topology.AS211, Fingerprint: fp, RTT: -time.Second, Samples: 1}}}, 1, pan.ErrSnapshotMalformed},
		{"anonymous path", pan.LinkSnapshot{Version: 1,
			Paths: []pan.PathExport{{Dst: topology.AS211, RTT: time.Millisecond, Samples: 1}}}, 1, pan.ErrSnapshotMalformed},
		{"valid entries ride along", pan.LinkSnapshot{Version: 1,
			Links: []pan.LinkExport{goodLink},
			Paths: []pan.PathExport{goodPath, {Dst: topology.AS211, Fingerprint: fp, RTT: -time.Second, Samples: 1}}}, 1, pan.ErrSnapshotMalformed},
	}
	for _, tc := range cases {
		applied, err := cold.ImportLinks(tc.snap, tc.weight)
		if !errors.Is(err, tc.want) || applied != 0 {
			t.Fatalf("%s: applied=%d err=%v, want 0 applied and %v", tc.name, applied, err, tc.want)
		}
		if _, ok := cold.Telemetry(fp); ok {
			t.Fatalf("%s: rejected import left path telemetry behind", tc.name)
		}
		if pen := cold.PathPenalty(paths[0]); pen != 0 {
			t.Fatalf("%s: rejected import left a link prior behind (penalty %v)", tc.name, pen)
		}
	}
}

// TestSnapshotNeverSchedulesProbes: an import neither arms probe timers on a
// cold monitor nor suppresses (or reschedules) the probes of a tracked one.
func TestSnapshotNeverSchedulesProbes(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0)}
	fp := paths[0].Fingerprint()
	clock := testbed.NewClock()
	probes := &probeScript{script: map[string][]probeOutcome{fp: {{rtt: 50 * time.Millisecond}}}}
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		BaseInterval: time.Second,
		Probe:        probes.fn,
	})
	snap := pan.LinkSnapshot{Version: 1, Paths: []pan.PathExport{
		{Dst: topology.AS211, Fingerprint: fp, RTT: 40 * time.Millisecond, Samples: 5},
	}}

	// Cold + started, nothing tracked: the import alone must not put the
	// imported path on the schedule.
	m.Start()
	defer m.Stop()
	if _, err := m.ImportLinks(snap, 1); err != nil {
		t.Fatal(err)
	}
	drain(clock, 5*time.Second, 100*time.Millisecond)
	if n := probes.total(); n != 0 {
		t.Fatalf("import armed %d probes on an untracked monitor, want 0", n)
	}

	// Tracked: the path probes on its normal schedule, and an import must
	// not suppress the upcoming fire the way a passive sample would.
	m.Track(probeTarget(0), "probe.server")
	if _, err := m.ImportLinks(snap, 1); err == nil {
		// Re-import is a no-op on the live entry but must also not reset
		// or cancel its schedule.
	}
	drain(clock, 3*time.Second, 100*time.Millisecond)
	if n := probes.total(); n == 0 {
		t.Fatal("tracked path never probed after import — import suppressed the schedule")
	}
}

// TestSnapshotLinkPriors: imported link estimates warm PathPenalty for links
// with no local series (and so hotspot-aware ranking on a cold host), decay
// away with age, never re-export, and are ignored once live local
// measurements exist.
func TestSnapshotLinkPriors(t *testing.T) {
	// Two paths to AS211: one crossing Core110→Core120 (the soon-to-be-hot
	// link), one via AS221 avoiding it.
	hot := fakePathVia(topology.AS211, 0, 10*time.Millisecond, topology.Core110, topology.Core120)
	clean := fakePathVia(topology.AS211, 1, 12*time.Millisecond, topology.AS221)
	paths := []*segment.Path{hot, clean}
	warm, cold, _, _, _ := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})

	// The warm vantage point sees heavy excess on the hot path's links from
	// its own (passive) traffic.
	warm.Track(probeTarget(0), "probe.server")
	for i := 0; i < 4; i++ {
		warm.Observe(hot, 120*time.Millisecond) // 100ms excess over the 20ms baseline
		warm.Observe(clean, 24*time.Millisecond)
	}
	snap := warm.ExportLinks()
	if len(snap.Links) == 0 {
		t.Fatal("warm export carries no link estimates")
	}

	if _, err := cold.ImportLinks(snap, 1); err != nil {
		t.Fatal(err)
	}
	hotPen, cleanPen := cold.PathPenalty(hot), cold.PathPenalty(clean)
	if hotPen <= cleanPen || hotPen < 50*time.Millisecond {
		t.Fatalf("imported priors: hot penalty %v vs clean %v — the cold host cannot see the hotspot", hotPen, cleanPen)
	}
	// Priors are invisible to LinkStats and to re-export: gossip never
	// echoes another host's estimates.
	if ls := cold.LinkStats(); len(ls) != 0 {
		t.Fatalf("imported priors leaked into LinkStats: %+v", ls)
	}
	if re := cold.ExportLinks(); len(re.Links) != 0 || len(re.Paths) != 0 {
		t.Fatalf("imported priors re-exported: %+v", re)
	}

	// Live local measurement overrides the prior for its links entirely.
	cold.Track(probeTarget(0), "probe.server")
	for i := 0; i < 4; i++ {
		cold.Observe(hot, 21*time.Millisecond) // locally the path runs clean
	}
	if pen := cold.PathPenalty(hot); pen >= hotPen/2 {
		t.Fatalf("live clean measurements left the imported penalty at %v (was %v)", pen, hotPen)
	}

	// And with time the prior decays: linearly down, to zero past the
	// stale-series horizon (staleSeriesAfter(10) × MaxInterval(4s) = 40s).
	_, cold2, _, coldClock2, _ := snapshotFixture(t, paths, pan.MonitorOptions{BaseInterval: time.Second})
	if _, err := cold2.ImportLinks(snap, 1); err != nil {
		t.Fatal(err)
	}
	before := cold2.PathPenalty(hot)
	coldClock2.Advance(20 * time.Second)
	if mid := cold2.PathPenalty(hot); mid <= 0 || mid >= before {
		t.Fatalf("prior penalty did not decay: %v at import, %v at half horizon", before, mid)
	}
	coldClock2.Advance(25 * time.Second)
	if late := cold2.PathPenalty(hot); late != 0 {
		t.Fatalf("prior penalty survived past the horizon: %v", late)
	}
}
