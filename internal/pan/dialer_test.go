package pan_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"net/netip"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/segment"
	"tango/internal/topology"
)

func dialWorld(t testing.TB) (*world, *pan.Host, addr.UDPAddr) {
	t.Helper()
	w := newWorld(t)
	server := w.host(topology.AS211, "10.0.0.2")
	lis := echoServer(t, server, 7100, "dialer.server", w.pool)
	t.Cleanup(func() { lis.Close() })
	client := w.host(topology.AS111, "10.0.0.1")
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 7100}
	return w, client, remote
}

func TestDialerReusesConnection(t *testing.T) {
	_, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server"})
	defer d.Close()

	conn1, sel1, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	conn2, sel2, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	if conn1 != conn2 {
		t.Fatal("second dial did not reuse the pooled connection")
	}
	if sel1.Path.Fingerprint() != sel2.Path.Fingerprint() {
		t.Fatal("reused connection must report the original selection")
	}
	if sel, ok := d.Cached(remote, ""); !ok || sel.Path.Fingerprint() != sel1.Path.Fingerprint() {
		t.Fatal("Cached() must expose the pooled selection")
	}
}

func TestDialerEpochBumpRedials(t *testing.T) {
	_, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server"})
	defer d.Close()

	conn1, _, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	e0 := d.Epoch()
	d.SetSelector(pan.NewLatencySelector())
	if d.Epoch() != e0+1 {
		t.Fatalf("SetSelector must bump the epoch: %d -> %d", e0, d.Epoch())
	}
	if conn1.Err() == nil {
		t.Fatal("epoch bump must close pooled connections")
	}
	if _, ok := d.Cached(remote, ""); ok {
		t.Fatal("stale selection survived the epoch bump")
	}
	conn2, sel2, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	if conn2 == conn1 {
		t.Fatal("dial after epoch bump returned the closed connection")
	}
	if sel2.Path == nil {
		t.Fatal("re-dial must re-select")
	}
}

func TestDialerDeadConnectionRedials(t *testing.T) {
	_, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server"})
	defer d.Close()

	conn1, _, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	conn1.Close()
	conn2, _, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	if conn2 == conn1 {
		t.Fatal("dial returned a dead pooled connection")
	}
}

// recordingSelector wraps a fixed ranking and records Report calls.
type recordingSelector struct {
	mu      sync.Mutex
	ranking []pan.Candidate
	reports map[string][]pan.Outcome
}

func (r *recordingSelector) Rank(dst addr.IA, paths []*segment.Path) []pan.Candidate {
	return append([]pan.Candidate(nil), r.ranking...)
}

func (r *recordingSelector) Report(path *segment.Path, outcome pan.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reports == nil {
		r.reports = make(map[string][]pan.Outcome)
	}
	fp := path.Fingerprint()
	r.reports[fp] = append(r.reports[fp], outcome)
}

func TestDialerFailsOverToNextCandidate(t *testing.T) {
	_, client, remote := dialWorld(t)
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// A reversed path cannot route from the client: the first candidate's
	// dial fails, and the dialer must fail over to the good second
	// candidate, reporting the failure into the selector.
	bad := paths[0].Reversed()
	good := paths[0]
	sel := &recordingSelector{ranking: []pan.Candidate{
		{Path: bad, Compliant: true},
		{Path: good, Compliant: true},
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:   sel,
		ServerName: "dialer.server",
		Timeout:    2 * time.Second, // virtual time: longer than a real handshake RTT, still fast
	})
	defer d.Close()

	conn, selection, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatalf("failover dial failed: %v", err)
	}
	if conn.Err() != nil {
		t.Fatal("failover connection is dead")
	}
	if selection.Path.Fingerprint() != good.Fingerprint() {
		t.Fatalf("failover picked %s, want the good candidate", selection.Path)
	}
	sel.mu.Lock()
	defer sel.mu.Unlock()
	badReports := sel.reports[bad.Fingerprint()]
	if len(badReports) == 0 || !badReports[0].Failed {
		t.Fatalf("bad path's failure was not reported: %+v", sel.reports)
	}
	goodReports := sel.reports[good.Fingerprint()]
	if len(goodReports) == 0 || goodReports[len(goodReports)-1].Failed {
		t.Fatalf("good path's success was not reported: %+v", sel.reports)
	}
}

func TestDialerReportFailureMarksPathDown(t *testing.T) {
	_, client, remote := dialWorld(t)
	ls := pan.NewLatencySelector()
	d := client.NewDialer(pan.DialOptions{Selector: ls, ServerName: "dialer.server"})
	defer d.Close()

	conn1, sel1, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	// A report against a LIVE pooled connection is a stale observation
	// (first reporter wins) and must not kill it.
	d.ReportFailure(remote, "")
	if conn1.Err() != nil {
		t.Fatal("ReportFailure killed a healthy pooled connection")
	}
	// The connection dies (transport teardown); a caller that saw the
	// round-trip error reports it.
	conn1.Close()
	d.ReportFailure(remote, "")
	// A response that completed before the failure must still annotate.
	if sel, ok := d.Cached(remote, ""); !ok || sel.Path.Fingerprint() != sel1.Path.Fingerprint() {
		t.Fatal("Cached must survive ReportFailure until re-dial or epoch bump")
	}
	conn2, sel2, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	if conn2 == conn1 {
		t.Fatal("dial after ReportFailure returned the dead connection")
	}
	if sel2.Path.Fingerprint() == sel1.Path.Fingerprint() {
		t.Fatal("next dial did not re-rank around the down path")
	}
	// A second report for the same death finds the healthy replacement and
	// must be a no-op.
	d.ReportFailure(remote, "")
	if conn2.Err() != nil {
		t.Fatal("stale ReportFailure killed the replacement connection")
	}
}

// failureCount returns how many Failed outcomes were recorded for fp.
func (r *recordingSelector) failureCount(fp string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, o := range r.reports[fp] {
		if o.Failed {
			n++
		}
	}
	return n
}

func TestDialerRacedKeepsFirstHandshakeAndCancelsLosers(t *testing.T) {
	_, client, remote := dialWorld(t)
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// The top-ranked candidate is unroutable (a reversed path): sequential
	// failover would burn its full handshake timeout before trying the
	// next candidate, but a race lets the good second candidate win while
	// the first is still flailing — and the canceled loser must NOT be
	// reported as a failure (cancellation is not a health signal).
	bad := paths[0].Reversed()
	good := paths[0]
	sel := &recordingSelector{ranking: []pan.Candidate{
		{Path: bad, Compliant: true},
		{Path: good, Compliant: true},
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:    sel,
		ServerName:  "dialer.server",
		Timeout:     2 * time.Second,
		RaceWidth:   2,
		RaceStagger: 20 * time.Millisecond,
	})
	defer d.Close()

	conn, selection, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatalf("raced dial failed: %v", err)
	}
	if conn.Err() != nil {
		t.Fatal("raced connection is dead")
	}
	if selection.Path.Fingerprint() != good.Fingerprint() {
		t.Fatalf("race kept %s, want the routable candidate", selection.Path)
	}
	sel.mu.Lock()
	goodReports := append([]pan.Outcome(nil), sel.reports[good.Fingerprint()]...)
	sel.mu.Unlock()
	if len(goodReports) != 1 || goodReports[0].Failed {
		t.Fatalf("winner reports = %+v, want one success", goodReports)
	}
	if goodReports[0].Latency <= 0 {
		t.Fatal("winner's success report must carry the measured handshake latency")
	}
	if n := sel.failureCount(bad.Fingerprint()); n != 0 {
		t.Fatalf("canceled loser was reported down %d times — racing poisoned the selector", n)
	}
	// The winner is pooled and reused.
	conn2, _, err := d.Dial(context.Background(), remote, "")
	if err != nil || conn2 != conn {
		t.Fatalf("raced winner not pooled (err %v)", err)
	}
}

func TestDialerRacedAllCandidatesFail(t *testing.T) {
	_, client, remote := dialWorld(t)
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	bad1, bad2 := paths[0].Reversed(), paths[len(paths)-1].Reversed()
	if bad1.Fingerprint() == bad2.Fingerprint() {
		t.Skip("need two distinct paths")
	}
	sel := &recordingSelector{ranking: []pan.Candidate{
		{Path: bad1, Compliant: true},
		{Path: bad2, Compliant: true},
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:    sel,
		ServerName:  "dialer.server",
		Timeout:     time.Second,
		RaceWidth:   2,
		RaceStagger: 10 * time.Millisecond,
	})
	defer d.Close()

	if _, _, err := d.Dial(context.Background(), remote, ""); err == nil {
		t.Fatal("race over two unroutable candidates succeeded")
	}
	// Both racers failed on their own merit (handshake timeout, no winner,
	// no cancellation): both must be reported down.
	if n := sel.failureCount(bad1.Fingerprint()); n != 1 {
		t.Fatalf("bad1 reported down %d times, want 1", n)
	}
	if n := sel.failureCount(bad2.Fingerprint()); n != 1 {
		t.Fatalf("bad2 reported down %d times, want 1", n)
	}
}

// TestDialerCancelDiscardsEarlierFailureReports is the regression test for
// the latent sequential-dial bug: candidate 1 fails (its Failure formerly
// reported immediately), then the caller cancels during candidate 2's dial.
// The whole call was abandoned — the selector must see NO reports from it,
// or every caller-side cancellation would poison rankings. Racing makes
// cancellation the common case, so this semantics is now load-bearing.
func TestDialerCancelDiscardsEarlierFailureReports(t *testing.T) {
	w, client, remote := dialWorld(t)
	paths := client.Paths(topology.AS211)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	bad1, bad2 := paths[0].Reversed(), paths[len(paths)-1].Reversed()
	sel := &recordingSelector{ranking: []pan.Candidate{
		{Path: bad1, Compliant: true},
		{Path: bad2, Compliant: true},
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:   sel,
		ServerName: "dialer.server",
		Timeout:    2 * time.Second,
	})
	defer d.Close()

	// Candidate 1 times out at 2s; candidate 2's dial starts then; the
	// caller cancels at 3s, mid-candidate-2.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.clock.AfterFunc(3*time.Second, func() { cancel() })
	_, _, err := d.Dial(ctx, remote, "")
	if err == nil {
		t.Fatal("canceled dial succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sel.mu.Lock()
	reports := make(map[string][]pan.Outcome, len(sel.reports))
	for fp, os := range sel.reports {
		reports[fp] = append([]pan.Outcome(nil), os...)
	}
	sel.mu.Unlock()
	if len(reports) != 0 {
		t.Fatalf("abandoned dial left reports in the selector: %+v", reports)
	}
}

func TestDialerHonorsContextDeadline(t *testing.T) {
	w, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server"})
	defer d.Close()

	// An already-expired deadline (on the virtual clock) must fail without
	// dialing.
	ctx, cancel := context.WithDeadline(context.Background(), w.clock.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := d.Dial(ctx, remote, ""); err == nil {
		t.Fatal("dial with expired deadline succeeded")
	}
}

func TestDialerStrictModeRefusesNonCompliant(t *testing.T) {
	_, client, remote := dialWorld(t)
	d := client.NewDialer(pan.DialOptions{
		Selector:   pan.NewPolicySelector(nil, policy.NewBlockGeofence(2)),
		Mode:       pan.Strict,
		ServerName: "dialer.server",
	})
	defer d.Close()
	if _, _, err := d.Dial(context.Background(), remote, ""); err == nil {
		t.Fatal("strict dial through blocked ISD succeeded")
	}
}

// TestDialerTracksPooledDestinationsOnMonitor is the probe-set-leak
// regression: a destination joins the monitor's probe set when its
// connection is pooled and leaves it whenever the pooled connection is
// closed or evicted — a long-lived proxy must not probe dead origins
// forever.
func TestDialerTracksPooledDestinationsOnMonitor(t *testing.T) {
	_, client, remote := dialWorld(t)
	m := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	d := client.NewDialer(pan.DialOptions{ServerName: "dialer.server", Monitor: m})

	if n := m.TargetCount(); n != 0 {
		t.Fatalf("fresh dialer tracks %d targets", n)
	}
	conn, _, err := d.Dial(context.Background(), remote, "")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("pooled destination not tracked: %d targets", n)
	}
	// Re-dial (pool hit) must not double-track.
	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("pool hit re-tracked: %d targets", n)
	}

	// Eviction via ReportFailure (dead transport) untracks.
	conn.Close()
	d.ReportFailure(remote, "")
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("evicted destination still tracked: %d targets (the probe-set leak)", n)
	}

	// Re-dial re-tracks; Invalidate (epoch bump) untracks again.
	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("re-dial did not re-track: %d targets", n)
	}
	d.Invalidate()
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("Invalidate left %d targets tracked", n)
	}

	// And Close unsubscribes + untracks whatever is left.
	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("Close left %d targets tracked", n)
	}
}

// TestMonitorSharedByTwoDialers: the shared-plane contract end to end —
// one monitor, two dialers, refcounted tracking, probe outcomes fanned out
// to both selectors.
func TestMonitorSharedByTwoDialers(t *testing.T) {
	_, client, remote := dialWorld(t)
	m := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	ls1, ls2 := pan.NewLatencySelector(), pan.NewLatencySelector()
	d1 := client.NewDialer(pan.DialOptions{Selector: ls1, ServerName: "dialer.server", Monitor: m})
	d2 := client.NewDialer(pan.DialOptions{Selector: ls2, ServerName: "dialer.server", Monitor: m})

	if _, _, err := d1.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("shared destination counted %d times", n)
	}

	// One deterministic probe sweep feeds BOTH dialers' selectors.
	m.RunRound()
	paths := client.Paths(remote.IA)
	for i, ls := range []*pan.LatencySelector{ls1, ls2} {
		for _, p := range paths {
			h, ok := healthFor(ls, p.Fingerprint())
			if !ok || h.RTT <= 0 {
				t.Fatalf("dialer %d selector missing probe RTT for %s", i+1, p)
			}
		}
	}

	// The first Close releases one reference; the destination stays probed
	// for the surviving dialer.
	d1.Close()
	if n := m.TargetCount(); n != 1 {
		t.Fatalf("first Close dropped the shared destination (%d targets)", n)
	}
	d2.Close()
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("last Close left %d targets", n)
	}
}

// TestDialerAdaptiveRaceWidth: with no telemetry the dialer races the full
// cap; once the monitor has fresh estimates the width follows the RTT
// spread (the default topology's fastest inter-ISD path leads the second by
// 50ms RTT — a clear leader, so the dialer stops racing entirely).
func TestDialerAdaptiveRaceWidth(t *testing.T) {
	_, client, remote := dialWorld(t)
	m := client.NewMonitor(pan.MonitorOptions{BaseInterval: 2 * time.Second})
	ls := pan.NewLatencySelector()
	d := client.NewDialer(pan.DialOptions{
		Selector:     ls,
		ServerName:   "dialer.server",
		RaceWidth:    3,
		AdaptiveRace: true,
		Monitor:      m,
	})
	defer d.Close()

	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	dec := d.LastRace()
	if !dec.Adaptive || dec.Width != 3 || dec.Reason != "no-leader-telemetry" {
		t.Fatalf("first dial race decision = %+v, want full width without telemetry", dec)
	}

	m.RunRound()
	d.Invalidate()
	if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
		t.Fatal(err)
	}
	dec = d.LastRace()
	if !dec.Adaptive || dec.Width != 1 || dec.Reason != "clear-leader" {
		t.Fatalf("post-probe race decision = %+v, want width 1 (leader 50ms ahead of the field)", dec)
	}
}
