package pan_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/topology"
)

// benchDials dials remote afresh b.N times and reports the virtual time
// per dial and, when widths is set, the mean race width.
func benchDials(b *testing.B, w *world, d *pan.Dialer, remote addr.UDPAddr, widths bool) {
	var virtual time.Duration
	width := 0
	b.ResetTimer()
	for range b.N {
		d.Invalidate() // force a fresh dial per iteration
		start := w.Clock.Now()
		if _, _, err := d.Dial(context.Background(), remote, ""); err != nil {
			b.Fatal(err)
		}
		virtual += w.Clock.Since(start)
		width += d.LastRace().Width
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/dial")
	if widths {
		b.ReportMetric(float64(width)/float64(b.N), "width/dial")
	}
}

// benchAsymmetricDial dials through a ranking whose TOP candidate is down
// (an unroutable reversed path), the failure mode racing exists for. The
// sequential dialer burns the full handshake timeout before failing over;
// the raced dialer lets the healthy second candidate win concurrently.
func benchAsymmetricDial(b *testing.B, raceWidth int) {
	w, client, remote := dialWorld(b)
	paths := client.Paths(topology.AS211)
	if len(paths) < 2 {
		b.Fatal("need path diversity")
	}
	sel := &recordingSelector{ranking: []pan.Candidate{
		{Path: paths[0].Reversed(), Compliant: true}, // top-ranked, down
		{Path: paths[0], Compliant: true},            // healthy
	}}
	d := client.NewDialer(pan.DialOptions{
		Selector:    sel,
		ServerName:  "dialer.server",
		Timeout:     2 * time.Second, // virtual: the sequential failover penalty
		RaceWidth:   raceWidth,
		RaceStagger: 10 * time.Millisecond,
	})
	defer d.Close()
	benchDials(b, w, d, remote, false)
}

// BenchmarkDialSequential: failover burns the dead top candidate's full
// handshake timeout on every dial.
func BenchmarkDialSequential(b *testing.B) { benchAsymmetricDial(b, 0) }

// BenchmarkDialRaced: the healthy second candidate wins while the dead top
// candidate is still flailing; the loser is canceled, not awaited.
func BenchmarkDialRaced(b *testing.B) { benchAsymmetricDial(b, 2) }

// BenchmarkDialAdaptive is the adaptive counterpart of BenchmarkDialRaced:
// with warm, fresh telemetry and a clearly healthy leader the adviser picks
// width 1, so the dial costs one handshake instead of RaceWidth of them.
func BenchmarkDialAdaptive(b *testing.B) {
	w, client, remote := dialWorld(b)
	ls := pan.NewLatencySelector()
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(ls)
	monitor.Track(remote, "dialer.server")
	monitor.RunRound() // warm telemetry: fresh estimates, clear leader
	monitor.Start()    // background schedule keeps it fresh across iterations
	defer monitor.Stop()
	d := client.NewDialer(pan.DialOptions{
		Selector:     ls,
		ServerName:   "dialer.server",
		Timeout:      2 * time.Second,
		RaceWidth:    2,
		AdaptiveRace: true,
		Monitor:      monitor,
	})
	defer d.Close()
	benchDials(b, w, d, remote, true)
}

// benchRounds runs b.N probe sweeps of monitor and reports the virtual
// time per sweep and the paths a sweep probes.
func benchRounds(b *testing.B, w *world, monitor *pan.Monitor) {
	var virtual time.Duration
	b.ResetTimer()
	for range b.N {
		start := w.Clock.Now()
		monitor.RunRound()
		virtual += w.Clock.Since(start)
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtms/round")
	b.ReportMetric(float64(monitor.TrackedPaths()), "paths/round")
}

// BenchmarkProberRound measures one probe sweep over a single tracked
// destination, a handshake probe per known inter-ISD path: the recurring
// background cost of keeping one destination's rankings live.
func BenchmarkProberRound(b *testing.B) {
	w, client, remote := dialWorld(b)
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(pan.NewLatencySelector())
	monitor.Track(remote, "dialer.server")
	benchRounds(b, w, monitor)
}

// BenchmarkMonitorRound measures one sweep in the shared configuration the
// monitor exists for: two destinations across both ISD-2 branches, tracked
// for two subscribed selectors, paths deduplicated and decomposed into
// links: the recurring cost of serving many dialers from ONE schedule.
func BenchmarkMonitorRound(b *testing.B) {
	w, client, remote1 := dialWorld(b)
	lis := echoServer(b, w.host(topology.AS221, "10.0.0.10"), 7101, "dialer.server", w.pool)
	b.Cleanup(func() { lis.Close() })
	remote2 := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS221, Host: netip.MustParseAddr("10.0.0.10")}, Port: 7101}
	monitor := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	monitor.SubscribeBatch(pan.NewLatencySelector())
	monitor.SubscribeBatch(pan.NewLatencySelector())
	monitor.Track(remote1, "dialer.server")
	monitor.Track(remote2, "dialer.server")
	benchRounds(b, w, monitor)
	b.ReportMetric(float64(len(monitor.LinkStats())), "links")
}

// BenchmarkSnapshotMerge measures one gossip exchange: exporting a warm
// monitor's LinkSnapshot (served from cache between ingests) and merging it
// into a cold peer, the recurring cost of link-state sharing per peer per
// round.
func BenchmarkSnapshotMerge(b *testing.B) {
	w, client, remote := dialWorld(b)
	warm := client.NewMonitor(pan.MonitorOptions{BaseInterval: time.Second})
	warm.Track(remote, "dialer.server")
	warm.RunRound()
	cold := pan.NewMonitor(w.Clock, client.Paths, pan.MonitorOptions{BaseInterval: time.Second})
	applied := 0
	b.ResetTimer()
	for range b.N {
		n, err := cold.ImportLinks(warm.ExportLinks(), 1)
		if err != nil {
			b.Fatal(err)
		}
		applied += n
	}
	b.ReportMetric(float64(applied)/float64(b.N), "estimates/merge")
}
