package pan

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/testbed"
)

// TestTrackingModel (whitebox) runs seeded random sequences of Track,
// TrackPassive, Untrack, UntrackPassive, probe rounds and control-plane
// churn over three destinations (two behind one IA, the third's path set
// overlapping theirs) on a started monitor whose probe timers run between
// steps. A model keeps each destination's reference counts. After every
// step the schedulable-path count TrackedPaths reports equals a brute-force
// count of entries with an actively tracked target, exactly those entries
// carry a probe timer (unless a probe is in flight), and every probe sent
// so far went to a destination the model holds actively tracked.
func TestTrackingModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runTrackingModel(t, seed) })
	}
}

func runTrackingModel(t *testing.T, seed uint64) {
	dstX, dstY := ringDst(10), ringDst(11)
	pool := make([]*segment.Path, 6)
	for i := range pool {
		pool[i] = ringPath(dstX, i)
	}
	tgts := []target{
		{ringRemote(dstX, 0), "x0"},
		{ringRemote(dstX, 1), "x1"},
		{ringRemote(dstY, 0), "y"},
	}

	// mu guards the control plane's path sets and the model, both read by
	// probe goroutines.
	var mu sync.Mutex
	sets := map[addr.IA][]*segment.Path{dstX: pool[:4], dstY: pool[2:]}
	refs := map[target]int{}
	activeRefs := map[target]int{}
	var bad []string
	probes := 0

	clock := testbed.NewClock()
	m := NewMonitor(clock, func(ia addr.IA) []*segment.Path {
		mu.Lock()
		defer mu.Unlock()
		return sets[ia]
	}, MonitorOptions{
		BaseInterval: 200 * time.Millisecond,
		ProbeBudget:  -1,
		Probe: func(remote addr.UDPAddr, name string, p *segment.Path, _ time.Duration) (time.Duration, error) {
			mu.Lock()
			defer mu.Unlock()
			probes++
			if activeRefs[target{remote, name}] == 0 {
				bad = append(bad, fmt.Sprintf("%s probed for %s|%s, which has no active tracker", p.Fingerprint(), remote, name))
			}
			return 2*p.Meta.Latency + time.Millisecond, nil
		},
	})
	m.Start()
	defer m.Stop()

	// quiesce waits until no probe is in flight: every Probe call launched
	// so far has returned.
	quiesce := func() {
		for i := 0; ; i++ {
			m.mu.Lock()
			n := len(m.inflight)
			m.mu.Unlock()
			if n == 0 {
				return
			}
			if i > 1_000_000 {
				t.Fatal("probes never drained")
			}
			runtime.Gosched()
		}
	}
	check := func(step int, op string) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		brute := 0
		for fp, e := range m.entries {
			active := false
			for _, tgt := range e.targets {
				if tgt.activeRefs > 0 {
					active = true
				}
			}
			if active {
				brute++
			}
			if armed := e.sched != nil; !m.inflight[fp] && armed != active {
				t.Fatalf("seed %d step %d (%s): entry %s armed=%v with an active target=%v", seed, step, op, fp, armed, active)
			}
		}
		if m.active != brute {
			t.Fatalf("seed %d step %d (%s): TrackedPaths counts %d, %d entries have an active target", seed, step, op, m.active, brute)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("seed %d step %d (%s): %s", seed, step, op, bad[0])
		}
	}

	rng := rand.New(rand.NewPCG(seed, 0x7a11))
	for step := range 300 {
		tgt := tgts[rng.IntN(len(tgts))]
		var op string
		switch k := rng.IntN(11); {
		case k < 2:
			op = "Track " + tgt.serverName
			mu.Lock()
			refs[tgt]++
			activeRefs[tgt]++
			mu.Unlock()
			m.Track(tgt.remote, tgt.serverName)
		case k < 4:
			op = "TrackPassive " + tgt.serverName
			mu.Lock()
			refs[tgt]++
			mu.Unlock()
			m.TrackPassive(tgt.remote, tgt.serverName)
		case k < 8:
			active := k < 6
			op = "UntrackPassive " + tgt.serverName
			if active {
				op = "Untrack " + tgt.serverName
			}
			mu.Lock()
			if refs[tgt] > 0 {
				refs[tgt]--
				if active && activeRefs[tgt] > 0 {
					activeRefs[tgt]--
				}
				if refs[tgt] == 0 {
					activeRefs[tgt] = 0
				}
			}
			mu.Unlock()
			if active {
				m.Untrack(tgt.remote, tgt.serverName)
			} else {
				m.UntrackPassive(tgt.remote, tgt.serverName)
			}
		case k < 10:
			ia := dstX
			if rng.IntN(2) == 0 {
				ia = dstY
			}
			var set []*segment.Path
			for _, p := range pool {
				if rng.IntN(2) == 0 {
					set = append(set, p)
				}
			}
			op = fmt.Sprintf("churn %s to %d paths", ia, len(set))
			mu.Lock()
			sets[ia] = set
			mu.Unlock()
		default:
			op = "RunRound"
			m.RunRound()
		}
		check(step, op)
		for range rng.IntN(10) {
			clock.Advance(50 * time.Millisecond)
			quiesce()
		}
		check(step, op+" then probes")
	}
	mu.Lock()
	defer mu.Unlock()
	if probes == 0 {
		t.Fatal("no probe sent over the whole walk")
	}
}
