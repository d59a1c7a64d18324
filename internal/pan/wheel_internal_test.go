package pan

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// TestProbeWheelFireTiming (whitebox): deadlines are rounded UP to a slot
// boundary — a node never fires before its requested time, and never later
// than one slot width past it.
func TestProbeWheelFireTiming(t *testing.T) {
	clock := netsim.NewSimClock(time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC))
	var mu sync.Mutex
	fired := make(map[string]time.Time)
	w := newProbeWheel(clock, 10*time.Millisecond, func(n *wheelNode) {
		mu.Lock()
		fired[n.fp] = clock.Now()
		mu.Unlock()
	})
	want := map[string]time.Duration{
		"a": 5 * time.Millisecond,   // sub-slot
		"b": 10 * time.Millisecond,  // exactly one slot
		"c": 123 * time.Millisecond, // mid-slot
		"d": 10 * time.Second,       // beyond one ring revolution (512 slots)
	}
	for fp, d := range want {
		w.schedule(&wheelNode{fp: fp}, d)
	}
	start := clock.Now()
	for i := 0; i < 4*wheelSlots && len(fired) < len(want); i++ {
		clock.AdvanceToNext()
	}
	for fp, d := range want {
		at, ok := fired[fp]
		if !ok {
			t.Fatalf("node %q (deadline %v) never fired", fp, d)
		}
		if got := at.Sub(start); got < d || got > d+10*time.Millisecond {
			t.Errorf("node %q fired at +%v, want within [%v, %v]", fp, got, d, d+10*time.Millisecond)
		}
	}
}

// TestProbeWheelCancelAndIdentity (whitebox): cancel is O(1) and final —
// a cancelled node never fires — and a node fires at most once.
func TestProbeWheelCancelAndIdentity(t *testing.T) {
	clock := netsim.NewSimClock(time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC))
	var mu sync.Mutex
	count := map[string]int{}
	w := newProbeWheel(clock, 10*time.Millisecond, func(n *wheelNode) {
		mu.Lock()
		count[n.fp]++
		mu.Unlock()
	})
	keep := &wheelNode{fp: "keep"}
	drop := &wheelNode{fp: "drop"}
	w.schedule(keep, 30*time.Millisecond)
	w.schedule(drop, 30*time.Millisecond)
	if !w.cancel(drop) {
		t.Fatal("cancel of a pending node reported not-pending")
	}
	if w.cancel(drop) {
		t.Fatal("second cancel reported the node still pending")
	}
	for i := 0; i < 16; i++ {
		clock.AdvanceToNext()
	}
	if count["drop"] != 0 {
		t.Error("cancelled node fired")
	}
	if count["keep"] != 1 {
		t.Errorf("kept node fired %d times, want 1", count["keep"])
	}
	if w.cancel(keep) {
		t.Error("cancel of an already-fired node reported it pending")
	}
}

// wheelTestMonitor is a monitor over a single fake path with a
// counting probe, for whitebox schedule-teardown tests.
func wheelTestMonitor(t *testing.T) (*Monitor, *netsim.SimClock, *segment.Path, func() int) {
	t.Helper()
	src := addr.IA{ISD: 1, AS: 0x111}
	dst := addr.IA{ISD: 2, AS: 0x211}
	path := &segment.Path{
		Src: src, Dst: dst,
		Hops: []segment.Hop{{IA: src, Egress: 1}, {IA: dst, Ingress: 2}},
		Meta: segment.Metadata{Latency: 10 * time.Millisecond},
	}
	clock := netsim.NewSimClock(time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC))
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
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr("10.0.0.2")}, Port: 443}, "wheel.server")
	return m, clock, path, func() int { mu.Lock(); defer mu.Unlock(); return probes }
}

// drainSim advances virtual time in steps, yielding real time between them
// so probe goroutines launched by wheel ticks get to run.
func drainSim(clock *netsim.SimClock, d, step time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		clock.Advance(step)
		//lint:allow-wallclock real-time yield so goroutines run between virtual-clock steps
		time.Sleep(time.Millisecond)
	}
}

// TestMonitorPruneWhileSlotPending (whitebox): the PR-4 class of
// stranded-schedule bugs, wheel edition. An entry that vanishes while its
// wheel slot is still pending must (a) not fire a probe, not panic, and
// leave the in-flight mark clean when the stale node comes due, and (b)
// never steal or double-fire the schedule of a same-fingerprint entry
// re-created in the meantime — the node-identity check against e.sched is
// what the per-entry timer closures used to guarantee.
func TestMonitorPruneWhileSlotPending(t *testing.T) {
	m, clock, path, probes := wheelTestMonitor(t)
	fp := path.Fingerprint()
	m.Start()
	defer m.Stop()

	m.mu.Lock()
	e := m.entries[fp]
	if e == nil || e.sched == nil {
		m.mu.Unlock()
		t.Fatal("tracked entry not scheduled after Start")
	}
	stale := e.sched
	// Model any teardown path that drops the entry while its slot is
	// pending (the hazard class — NOT the regular retire, which cancels).
	delete(m.entries, fp)
	m.mu.Unlock()

	// Re-create the entry before the stale node's deadline: a fresh Track
	// resyncs the path set and arms a fresh node for the same fingerprint.
	m.Track(addr.UDPAddr{Addr: addr.Addr{IA: path.Dst, Host: netip.MustParseAddr("10.0.0.3")}, Port: 443}, "wheel.server")
	m.mu.Lock()
	e2 := m.entries[fp]
	if e2 == nil || e2.sched == nil {
		m.mu.Unlock()
		t.Fatal("re-created entry not scheduled")
	}
	if e2.sched == stale {
		m.mu.Unlock()
		t.Fatal("re-created entry reuses the stale node")
	}
	m.mu.Unlock()

	// Run past both deadlines: the stale node must no-op (its identity
	// no longer matches), the fresh node must probe — exactly once per
	// interval, not twice.
	drainSim(clock, 1200*time.Millisecond, 50*time.Millisecond)
	if got := probes(); got != 1 {
		t.Fatalf("probes after one interval = %d, want exactly 1 (stale node must not fire)", got)
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

// TestMonitorStopDisarmsWheel (whitebox): Stop cancels every pending node
// AND the wheel's armed clock timer; Start re-arms from scratch. A
// Stop→Start cycle with nothing in flight must leave exactly the tracked
// entries scheduled — no strays, no double arms.
func TestMonitorStopDisarmsWheel(t *testing.T) {
	m, clock, path, probes := wheelTestMonitor(t)
	fp := path.Fingerprint()
	m.Start()
	m.Stop()

	m.wheel.mu.Lock()
	pending, armed := m.wheel.count, m.wheel.armed != nil
	m.wheel.mu.Unlock()
	if pending != 0 || armed {
		t.Fatalf("after Stop: %d pending nodes, armed=%v, want 0/false", pending, armed)
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
