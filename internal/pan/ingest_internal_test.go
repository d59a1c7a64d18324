package pan

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/testbed"
)

// ringPath builds a distinct in-memory path to dst (distinct hop sequence →
// distinct fingerprint) for the whitebox ingest tests.
func ringPath(dst addr.IA, i int) *segment.Path {
	return &segment.Path{
		Src: addr.IA{ISD: 1, AS: 0xff00_0000_0111},
		Dst: dst,
		Hops: []segment.Hop{
			{IA: addr.IA{ISD: 1, AS: 0xff00_0000_0111}, Egress: addr.IfID(700 + i)},
			{IA: dst, Ingress: addr.IfID(800 + i)},
		},
		Meta: segment.Metadata{Latency: time.Duration(10+i) * time.Millisecond},
	}
}

func ringDst(n int) addr.IA { return addr.IA{ISD: 2, AS: addr.AS(0xff00_0000_0200 + uint64(n))} }

func ringRemote(dst addr.IA, host int) addr.UDPAddr {
	return addr.UDPAddr{Addr: addr.Addr{IA: dst, Host: netip.MustParseAddr(fmt.Sprintf("10.9.0.%d", host+1))}, Port: 443}
}

// TestMonitorDrainDropsUntracked: a sample for a path whose destination was
// tracked but that arrives after the last Untrack must NOT apply —
// tracking is the contract — and is counted in IngestStats.Untracked.
func TestMonitorDrainDropsUntracked(t *testing.T) {
	clock := testbed.NewClock()
	dst := ringDst(2)
	p := ringPath(dst, 0)
	m := NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{p} }, MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) { return 0, nil },
	})
	remote := ringRemote(dst, 0)
	m.Track(remote, "untracked.test")
	m.Untrack(remote, "untracked.test")
	// The entry outlives the last Untrack (telemetry is kept), but the
	// sample must not land on it.
	m.Observe(p, 20*time.Millisecond)

	st := m.IngestStats()
	if st.Applied != 0 {
		t.Fatalf("applied = %d, want 0 — sample landed after Untrack", st.Applied)
	}
	if st.Untracked != 1 {
		t.Fatalf("untracked = %d, want 1", st.Untracked)
	}
	if tel, ok := m.Telemetry(p.Fingerprint()); ok && tel.Samples != 0 {
		t.Fatalf("telemetry shows %d samples on an untracked path", tel.Samples)
	}
}

// TestMonitorDrainVsStopStart: Observe racing Stop/Start cycles neither
// loses accounting nor deadlocks.
func TestMonitorDrainVsStopStart(t *testing.T) {
	dst := ringDst(3)
	paths := []*segment.Path{ringPath(dst, 0), ringPath(dst, 1)}
	m := NewMonitor(netsim.RealClock{}, func(addr.IA) []*segment.Path { return paths }, MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		},
	})
	remote := ringRemote(dst, 1)
	m.Track(remote, "stopstart.test")

	const producers = 4
	const perProducer = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Start()
			m.Stop()
		}
	}()
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := paths[g%len(paths)]
			for i := 0; i < perProducer; i++ {
				m.Observe(p, time.Duration(1+i%7)*time.Millisecond)
			}
		}(g)
	}
	wgWaitProducersThenStop(&wg, stop)
	m.Stop()

	st := m.IngestStats()
	if st.Enqueued != producers*perProducer {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, producers*perProducer)
	}
	checkIngestIdentity(t, st)
	if st.Applied == 0 {
		t.Fatal("no sample applied across the whole run")
	}
}

// wgWaitProducersThenStop waits for the producer goroutines then releases
// the Stop/Start cycler. (The WaitGroup counts the cycler too, so the wait
// happens in two phases via the done channel.)
func wgWaitProducersThenStop(wg *sync.WaitGroup, stop chan struct{}) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Producers finish on their own; the cycler needs the stop signal. A
	// single close is enough for both orderings.
	close(stop)
	<-done
}

// checkIngestIdentity asserts the synchronous-ingest accounting: every
// sample handed to the monitor was applied or discarded as untracked, and
// none was coalesced or dropped.
func checkIngestIdentity(t *testing.T, st IngestStats) {
	t.Helper()
	if got := st.Applied + st.Untracked; got != st.Enqueued {
		t.Fatalf("accounting leak: applied+untracked = %d, enqueued = %d (%+v)", got, st.Enqueued, st)
	}
	if st.Coalesced != 0 || st.Dropped != 0 {
		t.Fatalf("coalesced/dropped = %d/%d, want 0/0 (%+v)", st.Coalesced, st.Dropped, st)
	}
}

// TestMonitorIngestHammer: concurrent Observe / ObserveBatch / Track /
// Untrack / ImportLinks / reads across 8 destinations under the race
// detector. Afterwards the ingest accounting must balance exactly,
// refcounts must be back to zero, and nothing may have applied to
// fully-untracked destinations after their last Untrack.
func TestMonitorIngestHammer(t *testing.T) {
	const nDst = 8
	dsts := make([]addr.IA, nDst)
	pathsByDst := make(map[addr.IA][]*segment.Path, nDst)
	for i := range dsts {
		dsts[i] = ringDst(10 + i)
		pathsByDst[dsts[i]] = []*segment.Path{ringPath(dsts[i], 0), ringPath(dsts[i], 1)}
	}
	m := NewMonitor(netsim.RealClock{}, func(ia addr.IA) []*segment.Path { return pathsByDst[ia] }, MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) {
			return time.Millisecond, nil
		},
	})

	snap := LinkSnapshot{Version: LinkSnapshotVersion}
	for i := range dsts {
		snap.Links = append(snap.Links, LinkExport{
			A: addr.IA{ISD: 1, AS: 0xff00_0000_0111}, B: dsts[i],
			Congestion: 5 * time.Millisecond, Dev: time.Millisecond, Sharers: 1,
		})
	}

	var wg sync.WaitGroup
	const producers = 4
	const perProducer = 500
	// Every 4th iteration submits a 2-sample burst via ObserveBatch.
	const perIterBatch = 4
	samplesPerProducer := 0
	for i := 0; i < perProducer; i++ {
		if i%perIterBatch == 0 {
			samplesPerProducer += 2
		} else {
			samplesPerProducer++
		}
	}
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				dst := dsts[(g+i)%nDst]
				p := pathsByDst[dst][i%2]
				rtt := time.Duration(1+i%9) * time.Millisecond
				if i%perIterBatch == 0 {
					m.ObserveBatch(p, []time.Duration{rtt, rtt + time.Millisecond})
				} else {
					m.Observe(p, rtt)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // tracker churn
		defer wg.Done()
		for round := 0; round < 40; round++ {
			for i, dst := range dsts {
				m.Track(ringRemote(dst, i), "hammer.test")
			}
			for i, dst := range dsts {
				m.Untrack(ringRemote(dst, i), "hammer.test")
			}
		}
	}()
	wg.Add(1)
	go func() { // gossip import churn
		defer wg.Done()
		for round := 0; round < 50; round++ {
			if _, err := m.ImportLinks(snap, 0.5); err != nil {
				t.Errorf("ImportLinks: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // concurrent readers
		defer wg.Done()
		for round := 0; round < 50; round++ {
			m.LinkStats()
			for _, dst := range dsts {
				m.PathPenalty(pathsByDst[dst][0])
			}
			m.Telemetry(pathsByDst[dsts[0]][0].Fingerprint())
		}
	}()
	wg.Wait()

	st := m.IngestStats()
	if want := uint64(producers * samplesPerProducer); st.Enqueued != want {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, want)
	}
	checkIngestIdentity(t, st)

	// Refcounts hold: every Track was matched by an Untrack.
	if n := m.TargetCount(); n != 0 {
		t.Fatalf("TargetCount = %d after matched Track/Untrack churn", n)
	}
	if n := m.TrackedPaths(); n != 0 {
		t.Fatalf("TrackedPaths = %d after matched Track/Untrack churn", n)
	}

	// No sample applies after the LAST Untrack: everything is untracked
	// now, so further Observes must only grow the Untracked count.
	before := m.IngestStats()
	for _, dst := range dsts {
		m.Observe(pathsByDst[dst][0], 3*time.Millisecond)
	}
	after := m.IngestStats()
	if after.Applied != before.Applied {
		t.Fatalf("applied grew %d → %d on untracked destinations", before.Applied, after.Applied)
	}
	if after.Untracked != before.Untracked+nDst {
		t.Fatalf("untracked grew %d → %d, want +%d", before.Untracked, after.Untracked, nDst)
	}
}

// TestObserveBatchReentrantSink: a sink whose ReportBatch feeds another
// batch back into the monitor gets its own report buffer — the outer batch
// it is iterating is not overwritten by the nested one, and both batches
// are accounted.
func TestObserveBatchReentrantSink(t *testing.T) {
	clock := testbed.NewClock()
	dst := ringDst(4)
	pa, pb := ringPath(dst, 0), ringPath(dst, 1)
	m := NewMonitor(clock, func(addr.IA) []*segment.Path { return []*segment.Path{pa, pb} }, MonitorOptions{
		Probe: func(addr.UDPAddr, string, *segment.Path, time.Duration) (time.Duration, error) { return 0, nil },
	})
	m.Track(ringRemote(dst, 0), "reentrant.test")
	var got []time.Duration
	nested := false
	m.SubscribeBatch(BatchSinkFunc(func(reports []SampleReport) {
		if reports[0].Path != pa {
			return
		}
		if !nested {
			nested = true
			m.ObserveBatch(pb, []time.Duration{70 * time.Millisecond, 80 * time.Millisecond, 90 * time.Millisecond})
		}
		for _, r := range reports {
			if r.Path != pa {
				t.Fatalf("outer batch now carries a report for %s", r.Path.Fingerprint())
			}
			got = append(got, r.Outcome.Latency)
		}
	}))
	m.ObserveBatch(pa, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	if len(got) != 2 || got[0] != 10*time.Millisecond || got[1] != 20*time.Millisecond {
		t.Fatalf("outer batch after re-entry = %v, want [10ms 20ms]", got)
	}
	st := m.IngestStats()
	if st.Applied != 5 || st.Batches != 2 {
		t.Fatalf("applied %d samples in %d batches, want 5 in 2 (%+v)", st.Applied, st.Batches, st)
	}
	checkIngestIdentity(t, st)
}
