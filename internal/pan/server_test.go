package pan_test

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// TestTrackPassiveNeverSchedulesProbes: passive tracking (the server-side
// plane's contract) accepts samples and retains telemetry but never puts a
// path on the probe schedule — even on a STARTED monitor — while active
// tracking of the same destination still probes, and dropping the last
// active reference takes the paths back off the schedule without losing the
// passive flow.
func TestTrackPassiveNeverSchedulesProbes(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0), fakePath(topology.AS211, 1)}
	fp0 := paths[0].Fingerprint()
	script := &probeScript{script: map[string][]probeOutcome{
		fp0:                    {{rtt: 50 * time.Millisecond}},
		paths[1].Fingerprint(): {{rtt: 70 * time.Millisecond}},
	}}
	clock := testbed.NewClock()
	script.clock = clock
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		BaseInterval: time.Second,
		Probe:        script.fn,
	})
	target := probeTarget(0)

	// Passive tracking on a started monitor: no probes, ever.
	m.Start()
	defer m.Stop()
	m.TrackPassive(target, "")
	if n := m.TrackedPaths(); n != 0 {
		t.Fatalf("passive tracking put %d paths on the schedule", n)
	}
	drain(clock, 5*time.Second, 100*time.Millisecond)
	if n := script.total(); n != 0 {
		t.Fatalf("passively tracked destination was probed %d times", n)
	}
	// ...but passive samples are accepted.
	m.Observe(paths[0], 80*time.Millisecond)
	if tel, ok := m.Telemetry(fp0); !ok || tel.Samples != 1 {
		t.Fatalf("passive sample dropped: %+v (ok=%v)", tel, ok)
	}

	// An active tracker of the same destination upgrades it onto the
	// schedule; probing starts.
	m.Track(target, "")
	if n := m.TrackedPaths(); n != len(paths) {
		t.Fatalf("active upgrade scheduled %d paths, want %d", n, len(paths))
	}
	drain(clock, 3*time.Second, 100*time.Millisecond)
	probed := script.total()
	if probed == 0 {
		t.Fatal("actively tracked destination never probed")
	}

	// Dropping the active reference (the passive one remains) retires the
	// schedule again — telemetry kept, passive flow intact.
	m.Untrack(target, "")
	if n := m.TrackedPaths(); n != 0 {
		t.Fatalf("downgrade left %d paths scheduled", n)
	}
	drain(clock, 5*time.Second, 100*time.Millisecond)
	if n := script.total(); n != probed {
		t.Fatalf("downgraded destination kept probing: %d → %d", probed, n)
	}
	m.Observe(paths[0], 90*time.Millisecond)
	if tel, ok := m.Telemetry(fp0); !ok || tel.PassiveSamples < 2 {
		t.Fatalf("passive flow broken after downgrade: %+v (ok=%v)", tel, ok)
	}

	// Releasing the passive reference too fully untracks the destination.
	m.UntrackPassive(target, "")
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("%d targets left after final untrack", n)
	}
	m.Observe(paths[0], 95*time.Millisecond)
	if tel, _ := m.Telemetry(fp0); tel.PassiveSamples != 2 {
		t.Fatalf("untracked destination still ingesting: %+v", tel)
	}
}
