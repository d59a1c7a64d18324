package pan_test

import (
	"sort"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// refLinks is the link view recomputed from first principles: one excess
// series per path (every link of a path takes the same excess sample), and
// per link the minimum mean among the live series of the paths crossing it
// (ties to the lower deviation), the number of such paths, and the age of
// the youngest. A series older than the horizon is dropped where the
// monitor drops it (a link-view rebuild or a prune), so its next sample
// starts it afresh.
type refLinks struct {
	horizon time.Duration
	paths   map[string]*segment.Path
	series  map[string]*refSeries
}

type refSeries struct {
	mean, dev time.Duration
	samples   int
	last      time.Time
}

func newRefLinks(horizon time.Duration) *refLinks {
	return &refLinks{horizon: horizon, paths: map[string]*segment.Path{}, series: map[string]*refSeries{}}
}

func (r *refLinks) sample(p *segment.Path, rtt time.Duration, now time.Time) {
	x := rtt - 2*p.Meta.Latency
	if x < 0 {
		x = 0
	}
	fp := p.Fingerprint()
	r.paths[fp] = p
	s := r.series[fp]
	if s == nil {
		s = &refSeries{mean: x}
		r.series[fp] = s
	} else {
		diff := x - s.mean
		if diff < 0 {
			diff = -diff
		}
		s.dev = s.dev - s.dev/4 + diff/4
		s.mean = s.mean - s.mean/4 + x/4
	}
	s.samples++
	s.last = now
}

// expire drops the series gone stale by now.
func (r *refLinks) expire(now time.Time) {
	for fp, s := range r.series {
		if now.Sub(s.last) > r.horizon {
			delete(r.series, fp)
		}
	}
}

type refLinkKey struct{ a, b addr.IA }

func refPathLinks(p *segment.Path) []refLinkKey {
	var out []refLinkKey
	for i := 1; i < len(p.Hops); i++ {
		x, y := p.Hops[i-1].IA, p.Hops[i].IA
		if x == y {
			continue
		}
		if y.ISD < x.ISD || (y.ISD == x.ISD && y.AS < x.AS) {
			x, y = y, x
		}
		out = append(out, refLinkKey{x, y})
	}
	return out
}

func iaLess(x, y addr.IA) bool { return x.ISD < y.ISD || (x.ISD == y.ISD && x.AS < y.AS) }

func (r *refLinks) stats(now time.Time) []pan.LinkStat {
	byKey := map[refLinkKey]*pan.LinkStat{}
	for fp, s := range r.series {
		for _, lk := range refPathLinks(r.paths[fp]) {
			st := byKey[lk]
			age := now.Sub(s.last)
			if st == nil {
				byKey[lk] = &pan.LinkStat{A: lk.a, B: lk.b, Congestion: s.mean, Dev: s.dev, Sharers: 1, Age: age}
				continue
			}
			if s.mean < st.Congestion || (s.mean == st.Congestion && s.dev < st.Dev) {
				st.Congestion, st.Dev = s.mean, s.dev
			}
			if age < st.Age {
				st.Age = age
			}
			st.Sharers++
		}
	}
	out := make([]pan.LinkStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return iaLess(out[i].A, out[j].A)
		}
		return iaLess(out[i].B, out[j].B)
	})
	return out
}

func refPenalty(stats []pan.LinkStat, p *segment.Path) time.Duration {
	var sum time.Duration
	for _, lk := range refPathLinks(p) {
		for _, st := range stats {
			if st.A == lk.a && st.B == lk.b {
				sum += st.Congestion + 2*st.Dev
			}
		}
	}
	return sum
}

// TestLinkViewMatchesReference drives a scripted mix of probe rounds and
// passive samples over four overlapping paths and, at every checkpoint,
// holds LinkStats and PathPenalty to the reference view: min mean with the
// deviation tie-break, sharer counts, the youngest age. The script lets
// one path's series go stale past the horizon and then sample again (it
// must restart, not blend into the stale mean), and lets a withdrawn path's
// entry be pruned (its links must leave the view).
func TestLinkViewMatchesReference(t *testing.T) {
	// pA: 111-110-210-211, pB: 111-120-210-211, pC: 111-110-120-210-211,
	// pD: 111-120-220-211. 210-211 is shared by three, 120-210 by pB and pC.
	pA := fakePathVia(topology.AS211, 0, 20*time.Millisecond, topology.Core110, topology.Core210)
	pB := fakePathVia(topology.AS211, 1, 25*time.Millisecond, topology.Core120, topology.Core210)
	pC := fakePathVia(topology.AS211, 2, 30*time.Millisecond, topology.Core110, topology.Core120, topology.Core210)
	pD := fakePathVia(topology.AS211, 3, 15*time.Millisecond, topology.Core120, topology.Core220)
	all := []*segment.Path{pA, pB, pC, pD}
	current := all
	probeRTT := map[string]time.Duration{}
	clock := testbed.NewClock()
	m := pan.NewMonitor(clock, func(addr.IA) []*segment.Path { return current }, pan.MonitorOptions{
		BaseInterval: time.Second,
		Probe: func(_ addr.UDPAddr, _ string, p *segment.Path, _ time.Duration) (time.Duration, error) {
			if rtt, ok := probeRTT[p.Fingerprint()]; ok {
				return rtt, nil
			}
			return 0, probeErr
		},
	})
	// MaxInterval defaults to 4 s, so series go stale after 40 s.
	ref := newRefLinks(10 * 4 * time.Second)
	m.Track(probeTarget(0), "links.server")

	observe := func(p *segment.Path, rtt time.Duration) {
		t.Helper()
		m.Observe(p, rtt)
		ref.sample(p, rtt, clock.Now())
	}
	// round runs one synchronous probe round over the current path set
	// with the given RTTs (a path without one fails its probe).
	round := func(rtts map[*segment.Path]time.Duration) {
		t.Helper()
		clear(probeRTT)
		for p, rtt := range rtts {
			probeRTT[p.Fingerprint()] = rtt
		}
		m.RunRound()
		for _, p := range current {
			if rtt, ok := rtts[p]; ok {
				ref.sample(p, rtt, clock.Now())
			}
		}
	}
	check := func(step string, mustHave, mustLack [][2]addr.IA) {
		t.Helper()
		ref.expire(clock.Now())
		want := ref.stats(clock.Now())
		got := m.LinkStats()
		if len(got) != len(want) {
			t.Fatalf("%s: %d links in the view, want %d\n got %+v\nwant %+v", step, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: link %d = %+v, want %+v", step, i, got[i], want[i])
			}
		}
		for _, p := range all {
			if got, want := m.PathPenalty(p), refPenalty(want, p); got != want {
				t.Errorf("%s: PathPenalty(%s) = %v, want %v", step, p.Fingerprint(), got, want)
			}
		}
		has := func(l [2]addr.IA) bool {
			for _, st := range got {
				if (st.A == l[0] && st.B == l[1]) || (st.A == l[1] && st.B == l[0]) {
					return true
				}
			}
			return false
		}
		for _, l := range mustHave {
			if !has(l) {
				t.Errorf("%s: link %s-%s missing from the view", step, l[0], l[1])
			}
		}
		for _, l := range mustLack {
			if has(l) {
				t.Errorf("%s: link %s-%s still in the view", step, l[0], l[1])
			}
		}
	}
	link := func(x, y addr.IA) [2]addr.IA { return [2]addr.IA{x, y} }
	up120 := link(topology.AS111, topology.Core120)   // pB and pD
	onlyC := link(topology.Core110, topology.Core120) // pC alone
	onlyD := link(topology.Core120, topology.Core220) // pD alone

	ms := time.Millisecond
	// Warm-up: a probe round, then passive samples at staggered times, two
	// per path, that leave all four at a 10 ms mean with deviations pA 8,
	// pB 0, pC 4 and pD 2 ms — a tie on every shared link that only the
	// deviation breaks.
	round(map[*segment.Path]time.Duration{pA: 40*ms + 2*ms, pB: 50*ms + 10*ms, pC: 60*ms + 6*ms, pD: 30*ms + 12*ms})
	clock.Advance(time.Second)
	observe(pB, 50*ms+10*ms)
	observe(pC, 60*ms+22*ms)
	clock.Advance(500 * ms)
	observe(pA, 40*ms+34*ms)
	clock.Advance(250 * ms)
	observe(pD, 30*ms+4*ms)
	clock.Advance(250 * ms)
	check("warm-up", [][2]addr.IA{up120, onlyC, onlyD}, nil)

	// The same excess on every path keeps the means tied and the
	// deviations apart, so each rebuild, whatever order it visits the
	// entries in, must resolve the ties by deviation.
	for i := range 6 {
		clock.Advance(time.Second)
		for _, p := range all {
			observe(p, 2*p.Meta.Latency+time.Duration(5+3*i)*ms)
		}
		check("ties held", nil, nil)
	}

	// A probe round in which pC's probe fails (its series keeps its last
	// sample while the others move on) and pA's RTT falls under its
	// baseline (its excess clamps to 0).
	clock.Advance(2 * time.Second)
	round(map[*segment.Path]time.Duration{pA: 35 * ms, pB: 50*ms + 12*ms, pD: 30*ms + 45*ms})
	clock.Advance(time.Second)
	check("pC failing", [][2]addr.IA{up120, onlyC, onlyD}, nil)

	// pB goes quiet past the horizon while the others keep sampling.
	for range 5 {
		clock.Advance(10 * time.Second)
		observe(pA, 40*time.Millisecond+8*time.Millisecond)
		observe(pC, 60*time.Millisecond+9*time.Millisecond)
		observe(pD, 30*time.Millisecond+40*time.Millisecond)
		check("pB quiet", nil, nil)
	}
	// One fresh sample restarts pB's series at exactly its 1 ms excess, the
	// minimum on each of its links; blending into the stale mean would read
	// about 8 ms there.
	clock.Advance(time.Second)
	observe(pB, 50*time.Millisecond+time.Millisecond)
	clock.Advance(100 * time.Millisecond)
	check("pB restarted", [][2]addr.IA{up120}, nil)

	// The control plane withdraws pD. A round drops it from the target; the
	// retired entry keeps its telemetry (its links stay in the view) until
	// the next Track past the horizon prunes it.
	current = []*segment.Path{pA, pB, pC}
	clock.Advance(time.Second)
	round(map[*segment.Path]time.Duration{
		pA: 40*time.Millisecond + 7*time.Millisecond,
		pB: 50*time.Millisecond + 68*time.Millisecond,
		pC: 60*time.Millisecond + 9*time.Millisecond,
	})
	clock.Advance(time.Second)
	check("pD retired", [][2]addr.IA{onlyD}, nil)

	clock.Advance(45 * time.Second)
	m.Track(probeTarget(1), "links.server") // prunes on a new destination
	ref.expire(clock.Now())
	if _, ok := m.Telemetry(pD.Fingerprint()); ok {
		t.Fatal("retired pD entry survived the prune past the horizon")
	}
	observe(pA, 40*time.Millisecond+3*time.Millisecond)
	observe(pB, 50*time.Millisecond+6*time.Millisecond)
	clock.Advance(time.Second)
	check("pD pruned", [][2]addr.IA{up120}, [][2]addr.IA{onlyC, onlyD})

	// pC, stale but still tracked, restarts on its next sample.
	observe(pC, 60*time.Millisecond+2*time.Millisecond)
	check("pC restarted", [][2]addr.IA{onlyC}, [][2]addr.IA{onlyD})
}
