package pan

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/testbed"
)

// TestMonitorFirstDeadlineExact (whitebox): every tracked path's first
// probe fires at exactly start + iv/8 + jitterHash(fp,0)·(iv−iv/8)/1000,
// the deadline of its own clock timer, and none fires earlier.
func TestMonitorFirstDeadlineExact(t *testing.T) {
	src := addr.IA{ISD: 1, AS: 0x111}
	dst := addr.IA{ISD: 2, AS: 0x211}
	var paths []*segment.Path
	for i := range 6 {
		paths = append(paths, &segment.Path{
			Src: src, Dst: dst,
			Hops: []segment.Hop{{IA: src, Egress: addr.IfID(1 + i)}, {IA: dst, Ingress: addr.IfID(10 + i)}},
			Meta: segment.Metadata{Latency: time.Duration(10+i) * time.Millisecond},
		})
	}
	clock := testbed.NewClock()
	// The probe blocks until the test ends, so a fired path stays marked
	// in flight and is never rescheduled: the mark is the fire record.
	release := make(chan struct{})
	m := NewMonitor(clock, func(addr.IA) []*segment.Path { return paths }, MonitorOptions{
		BaseInterval: time.Second,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			<-release
			return 20 * time.Millisecond, nil
		},
	})
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}, "schedule.server")
	start := clock.Now()
	m.Start()
	defer m.Stop()
	defer close(release)

	want := make(map[string]time.Time, len(paths))
	m.mu.Lock()
	for _, p := range paths {
		fp := p.Fingerprint()
		e := m.entries[fp]
		if e == nil || e.sched == nil {
			m.mu.Unlock()
			t.Fatalf("path %s not scheduled after Start", fp)
		}
		iv := m.effectiveInterval(e)
		want[fp] = start.Add(iv/8 + time.Duration(jitterHash(fp, 0))*(iv-iv/8)/1000)
	}
	m.mu.Unlock()

	fired := make(map[string]time.Time, len(paths))
	for len(fired) < len(paths) && clock.AdvanceToNext() {
		now := clock.Now()
		m.mu.Lock()
		for fp := range want {
			if _, ok := fired[fp]; !ok && m.inflight[fp] {
				fired[fp] = now
			}
		}
		m.mu.Unlock()
	}
	for fp, at := range want {
		got, ok := fired[fp]
		if !ok {
			t.Fatalf("path %s (deadline +%v) never fired", fp, at.Sub(start))
		}
		if !got.Equal(at) {
			t.Errorf("path %s fired at +%v, want exactly +%v", fp, got.Sub(start), at.Sub(start))
		}
	}
}

// scheduleTestMonitor is a monitor over a single fake path with a
// counting probe, for whitebox schedule-teardown tests.
func scheduleTestMonitor(t *testing.T) (*Monitor, *netsim.SimClock, *segment.Path, func() int) {
	t.Helper()
	src := addr.IA{ISD: 1, AS: 0x111}
	dst := addr.IA{ISD: 2, AS: 0x211}
	path := &segment.Path{
		Src: src, Dst: dst,
		Hops: []segment.Hop{{IA: src, Egress: 1}, {IA: dst, Ingress: 2}},
		Meta: segment.Metadata{Latency: 10 * time.Millisecond},
	}
	clock := testbed.NewClock()
	var mu sync.Mutex
	probes := 0
	m := NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{path} }, MonitorOptions{
		BaseInterval: time.Second,
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			mu.Lock()
			probes++
			mu.Unlock()
			return 20 * time.Millisecond, nil
		},
	})
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}, "schedule.server")
	return m, clock, path, func() int { mu.Lock(); defer mu.Unlock(); return probes }
}

// drainSim advances virtual time in steps, yielding real time between them
// so probe goroutines launched by timer fires get to run.
func drainSim(clock *netsim.SimClock, d, step time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		clock.Advance(step)
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
	}
}

// TestMonitorPruneWhileSlotPending (whitebox): the class of
// stranded-schedule bugs. An entry that vanishes while its probe timer is
// still pending must (a) not fire a probe, not panic, and leave the
// in-flight mark clean when the stale timer comes due, and (b) never steal
// or double-fire the schedule of a same-fingerprint entry re-created in the
// meantime — the (entry, seq) check in fire is what guarantees both.
func TestMonitorPruneWhileSlotPending(t *testing.T) {
	m, clock, path, probes := scheduleTestMonitor(t)
	fp := path.Fingerprint()
	m.Start()
	defer m.Stop()

	m.mu.Lock()
	e := m.entries[fp]
	if e == nil || e.sched == nil {
		m.mu.Unlock()
		t.Fatal("tracked entry not scheduled after Start")
	}
	stale, staleSeq := e, e.seq
	// Model any teardown path that drops the entry while its timer is
	// pending (the hazard class — NOT the regular retire, which cancels).
	delete(m.entries, fp)
	m.mu.Unlock()

	// Re-create the entry 100 ms later, still before the stale timer's
	// deadline (at least iv/8 = 125 ms): a fresh Track resyncs the path set
	// and arms a fresh timer for the same fingerprint, due 100 ms after the
	// stale one, so a stale fire would probe on its own.
	clock.Advance(100 * time.Millisecond)
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: path.Dst, Host: netip.MustParseAddr("10.0.0.3")}, Port: 443}, "schedule.server")
	m.mu.Lock()
	e2 := m.entries[fp]
	if e2 == nil || e2.sched == nil {
		m.mu.Unlock()
		t.Fatal("re-created entry not scheduled")
	}
	if e2 == stale && e2.seq == staleSeq {
		m.mu.Unlock()
		t.Fatal("re-created entry reuses the stale timer's (entry, seq)")
	}
	m.mu.Unlock()

	// Run past both deadlines: the stale timer must no-op (its entry is no
	// longer the fingerprint's), the fresh timer must probe — exactly once
	// per interval, not twice.
	drainSim(clock, 1200*time.Millisecond, 50*time.Millisecond)
	if got := probes(); got != 1 {
		t.Fatalf("probes after one interval = %d, want exactly 1 (stale timer must not fire)", got)
	}
	m.mu.Lock()
	inflight := m.inflight[fp]
	rearmed := m.entries[fp].sched != nil
	m.mu.Unlock()
	if inflight {
		t.Fatal("in-flight mark leaked after probe drained")
	}
	if !rearmed {
		t.Fatal("entry fell off the schedule after its probe")
	}
}

// TestMonitorStopCancelsTimers (whitebox): Stop cancels every entry's
// pending clock timer, leaving none on the clock; Start re-arms from
// scratch. A Stop→Start cycle with nothing in flight must leave exactly the
// tracked entries scheduled — no strays, no double arms.
func TestMonitorStopCancelsTimers(t *testing.T) {
	m, clock, path, probes := scheduleTestMonitor(t)
	fp := path.Fingerprint()
	m.Start()
	m.Stop()

	m.mu.Lock()
	armed := 0
	for _, e := range m.entries {
		if e.sched != nil {
			armed++
		}
	}
	m.mu.Unlock()
	if armed != 0 {
		t.Fatalf("after Stop: %d entries still armed, want 0", armed)
	}
	if n := clock.PendingTimers(); n != 0 {
		t.Fatalf("after Stop: %d timers pending on the clock, want 0", n)
	}
	drainSim(clock, 3*time.Second, 250*time.Millisecond)
	if got := probes(); got != 0 {
		t.Fatalf("probes while stopped = %d", got)
	}

	m.Start()
	defer m.Stop()
	m.mu.Lock()
	scheduled := m.entries[fp].sched != nil
	m.mu.Unlock()
	if !scheduled {
		t.Fatal("restart did not reschedule the tracked entry")
	}
	drainSim(clock, 1200*time.Millisecond, 50*time.Millisecond)
	if got := probes(); got < 1 {
		t.Fatal("no probe after restart")
	}
}

// TestMonitorTimerFiringDuringStopIsFenced (whitebox): a timer the clock has
// already popped, whose callback is waiting for the monitor lock while Stop
// retires the entry — or while a Stop→Start cycle re-arms it — must not
// probe. Cancelling cannot stop it; fire's (entry, seq) check does.
func TestMonitorTimerFiringDuringStopIsFenced(t *testing.T) {
	for _, restart := range []bool{false, true} {
		m, clock, path, probes := scheduleTestMonitor(t)
		fp := path.Fingerprint()
		m.Start()

		m.mu.Lock()
		e := m.entries[fp]
		fired := make(chan struct{})
		go func() {
			clock.AdvanceToNext() // to the first deadline, and no further
			close(fired)
		}()
		// The clock pops the timer before it runs the callback, which then
		// blocks on m.mu.
		for clock.PendingTimers() != 0 {
			runtime.Gosched()
		}
		m.started = false // Stop's body, under the lock the callback waits on
		m.retireEntryLocked(e)
		if restart {
			m.started = true // Start's body
			m.scheduleLocked(fp, e, true)
		}
		m.mu.Unlock()
		<-fired

		drainSim(clock, 100*time.Millisecond, 50*time.Millisecond)
		if got := probes(); got != 0 {
			t.Errorf("restart=%v: %d probes from a timer fired across Stop, want 0", restart, got)
		}
		m.mu.Lock()
		armed := e.sched != nil
		m.mu.Unlock()
		if armed != restart {
			t.Errorf("restart=%v: entry armed=%v after the stale fire, want %v", restart, armed, restart)
		}
		m.Stop()
	}
}
