package pan_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/segment"
)

// TestMonitorSuiteAcrossShardCounts re-runs the behavioral monitor suite in
// the two process shapes under which the monitor once split its
// destinations into one lock shard and into eight: GOMAXPROCS 1 and 8 (the
// old default shard count was GOMAXPROCS rounded up to a power of two). The
// monitor now has one lock whatever the process shape; every scheduling,
// refcounting and telemetry property must hold in both.
func TestMonitorSuiteAcrossShardCounts(t *testing.T) {
	suite := []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ReportsRTTAndFailure", TestMonitorReportsRTTAndFailure},
		{"JitteredScheduling", TestMonitorJitteredScheduling},
		{"ChurnAdaptiveIntervals", TestMonitorChurnAdaptiveIntervals},
		{"ProbeBudgetFloor", TestMonitorProbeBudgetFloor},
		{"FailureBackoffAndRecovery", TestMonitorFailureBackoffAndRecovery},
		{"RefcountedTracking", TestMonitorRefcountedTracking},
		{"LinkAttribution", TestMonitorLinkAttribution},
		{"FeedsSubscribedSelectors", TestMonitorFeedsSubscribedSelectors},
		{"DropsVanishedPaths", TestMonitorDropsVanishedPaths},
		{"ObserveMatchesProbePipeline", TestMonitorObserveMatchesProbePipeline},
		{"ObserveSuppressesScheduledProbes", TestMonitorObserveSuppressesScheduledProbes},
		{"ObserveUntrackedPathDropped", TestMonitorObserveUntrackedPathDropped},
		{"StopRestartMidProbe", TestMonitorStopRestartMidProbe},
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range suite {
				t.Run(tc.name, tc.fn)
			}
		})
	}
}

// TestMonitorShardHammer runs every mutating and reading entry point of the
// monitor concurrently across eight destinations — the -race workout for
// the monitor lock and its per-path probe timers. Assertions are
// deliberately thin (the race detector is the judge); what must hold at the
// end is the refcount invariant: all trackers gone → no targets, nothing on
// the schedule.
func TestMonitorShardHammer(t *testing.T) {
	const (
		dests = 8
		iters = 300
	)
	dsts := make([]addr.IA, dests)
	byDst := make(map[addr.IA][]*segment.Path)
	var all []*segment.Path
	for d := 0; d < dests; d++ {
		dsts[d] = addr.IA{ISD: 2, AS: addr.AS(0x211 + d)}
		for i := 0; i < 3; i++ {
			p := fakePath(dsts[d], i)
			byDst[dsts[d]] = append(byDst[dsts[d]], p)
			all = append(all, p)
		}
	}
	m := pan.NewMonitor(netsim.RealClock{}, func(ia addr.IA) []*segment.Path { return byDst[ia] }, pan.MonitorOptions{
		BaseInterval: 50 * time.Millisecond,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		},
	})
	target := func(d, i int) addr.UDPAddr {
		return addr.UDPAddr{Addr: addr.Addr{IA: dsts[d], Host: probeTarget(i).Host}, Port: 443}
	}
	// A baseline of tracked destinations so the readers always see entries.
	for d := 0; d < dests; d++ {
		m.Track(target(d, 0), "hammer.server")
	}
	m.Start()
	snap := m.ExportLinks()
	snap.Paths = append(snap.Paths, pan.PathExport{
		Dst: dsts[0], Fingerprint: byDst[dsts[0]][1].Fingerprint(),
		RTT: 30 * time.Millisecond, Samples: 2,
	})

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		run(func(i int) {
			p := all[(w*7+i)%len(all)]
			m.Observe(p, time.Duration(10+(i%20))*time.Millisecond)
		})
	}
	for w := 0; w < 2; w++ {
		w := w
		run(func(i int) {
			d := (w*3 + i) % dests
			m.Track(target(d, 1), "hammer.server")
			m.Untrack(target(d, 1), "hammer.server")
		})
	}
	run(func(i int) {
		d := i % dests
		m.TrackPassive(target(d, 2), "hammer.server")
		m.UntrackPassive(target(d, 2), "hammer.server")
	})
	run(func(i int) {
		if _, err := m.ImportLinks(snap, 0.5); err != nil {
			t.Errorf("ImportLinks: %v", err)
		}
	})
	for w := 0; w < 2; w++ {
		run(func(i int) {
			m.PathStats(all)
			m.LinkStats()
			m.Telemetry(all[i%len(all)].Fingerprint())
			m.TargetSamples(target(i%dests, 0), "hammer.server")
		})
	}
	run(func(i int) {
		if i%50 == 25 {
			m.Stop()
			m.Start()
		}
	})
	wg.Wait()
	m.Stop()

	for d := 0; d < dests; d++ {
		m.Untrack(target(d, 0), "hammer.server")
	}
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("targets left after all trackers untracked: %d", n)
	}
	if n := m.TrackedPaths(); n != 0 {
		t.Fatalf("paths still on the schedule after all trackers untracked: %d", n)
	}
}
