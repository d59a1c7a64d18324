package stripe_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/pan/stripe"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// testPath builds a minimal two-hop path with a distinct fingerprint per i.
func testPath(i int) *segment.Path {
	return &segment.Path{
		Src: topology.AS111,
		Dst: topology.AS211,
		Hops: []segment.Hop{
			{IA: topology.AS111, Egress: addr.IfID(100 + i)},
			{IA: topology.AS211, Ingress: addr.IfID(200 + i)},
		},
	}
}

// pattern generates the deterministic transfer content: byte k of the
// resource is (k mod 251), so any reassembly error shows up as a mismatch.
func pattern(off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + int64(i)) % 251)
	}
	return b
}

func checkPattern(t *testing.T, off int64, data []byte) {
	t.Helper()
	for i, b := range data {
		if want := byte((off + int64(i)) % 251); b != want {
			t.Fatalf("data[%d] = %d, want %d", i, b, want)
		}
	}
}

// delayFetch serves the pattern after a fixed virtual delay, honoring ctx.
func delayFetch(clock netsim.Clock, delay time.Duration) stripe.FetchFunc {
	return func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
		select {
		case <-clock.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return pattern(seg.Offset, seg.Length), nil
	}
}

// hangFetch never returns until ctx is canceled.
func hangFetch(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestFetchReassembles(t *testing.T) {
	clock := testbed.AutoClock(t)
	fast := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	slow := stripe.NewPipeline(nil, testPath(2), 40*time.Millisecond, time.Millisecond)
	delays := map[*stripe.Pipeline]time.Duration{fast: 10 * time.Millisecond, slow: 40 * time.Millisecond}
	const off, length = int64(5000), int64(100_000)
	res, err := stripe.Fetch(context.Background(), off, length, []*stripe.Pipeline{fast, slow}, stripe.Options{
		SegmentSize: 4 << 10,
		Clock:       clock,
		Fetch: func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
			return delayFetch(clock, delays[p])(ctx, p, seg)
		},
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if int64(len(res.Data)) != length {
		t.Fatalf("got %d bytes, want %d", len(res.Data), length)
	}
	checkPattern(t, off, res.Data)
	if res.Retries != 0 || res.Reassigned != 0 {
		t.Fatalf("clean transfer had Retries=%d Reassigned=%d", res.Retries, res.Reassigned)
	}
	var sum int64
	for _, n := range res.PerPath {
		sum += n
	}
	if sum != length {
		t.Fatalf("PerPath splits sum to %d, want %d", sum, length)
	}
	ff, sf := fast.Path().Fingerprint(), slow.Path().Fingerprint()
	if res.PerPath[ff] == 0 || res.PerPath[sf] == 0 {
		t.Fatalf("expected both paths used, got %v", res.PerPath)
	}
	// The 4x-faster pipeline must carry the larger share.
	if res.PerPath[ff] <= res.PerPath[sf] {
		t.Fatalf("fast path carried %d <= slow path's %d", res.PerPath[ff], res.PerPath[sf])
	}
	if fast.Status().Cwnd <= stripe.DefaultInitialCwnd {
		t.Fatalf("fast pipeline window never grew: %+v", fast.Status())
	}
}

func TestSchedulerPrefersLowPessimisticRTT(t *testing.T) {
	clock := testbed.AutoClock(t)
	fast := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	slow := stripe.NewPipeline(nil, testPath(2), 100*time.Millisecond, time.Millisecond)

	var mu sync.Mutex
	first := make(map[int]*stripe.Pipeline) // segment index -> first assignee
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
		mu.Lock()
		if _, ok := first[seg.Index]; !ok {
			first[seg.Index] = p
		}
		mu.Unlock()
		return delayFetch(clock, 10*time.Millisecond)(ctx, p, seg)
	}
	// Six segments, initial window three per pipeline: the scheduler must fill
	// the low-pessimistic pipeline's window before touching the other.
	res, err := stripe.Fetch(context.Background(), 0, 6000, []*stripe.Pipeline{slow, fast}, stripe.Options{
		SegmentSize: 1000,
		Clock:       clock,
		Fetch:       fetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, res.Data)
	mu.Lock()
	defer mu.Unlock()
	for idx, want := range map[int]*stripe.Pipeline{0: fast, 1: fast, 2: fast, 3: slow, 4: slow, 5: slow} {
		if first[idx] != want {
			t.Errorf("segment %d first assigned to %s, want %s",
				idx, first[idx].Path().Fingerprint(), want.Path().Fingerprint())
		}
	}
}

func TestDeadPipelineReassignsOutstanding(t *testing.T) {
	clock := testbed.AutoClock(t)
	// The dying pipeline is seeded faster so the scheduler loads it first.
	dying := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	healthy := stripe.NewPipeline(nil, testPath(2), 20*time.Millisecond, time.Millisecond)
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
		if p == dying {
			return hangFetch(ctx, p, seg)
		}
		return delayFetch(clock, 20*time.Millisecond)(ctx, p, seg)
	}
	const length = int64(6000)
	res, err := stripe.Fetch(context.Background(), 0, length, []*stripe.Pipeline{dying, healthy}, stripe.Options{
		SegmentSize:   1000,
		Clock:         clock,
		Fetch:         fetch,
		MinRTO:        50 * time.Millisecond,
		DeadThreshold: 1,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, res.Data)
	if !dying.Status().Dead {
		t.Fatal("hung pipeline not marked dead")
	}
	if healthy.Status().Dead {
		t.Fatal("healthy pipeline marked dead")
	}
	if res.Retries == 0 {
		t.Fatal("expected timed-out attempts to count as retries")
	}
	if res.Reassigned == 0 {
		t.Fatal("expected outstanding segments reassigned off the dead pipeline")
	}
	if got := res.PerPath[healthy.Path().Fingerprint()]; got != length {
		t.Fatalf("healthy path delivered %d bytes, want all %d", got, length)
	}
	if got := res.PerPath[dying.Path().Fingerprint()]; got != 0 {
		t.Fatalf("dead path credited %d bytes", got)
	}
}

func TestAllPipelinesDeadFails(t *testing.T) {
	clock := testbed.AutoClock(t)
	only := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	_, err := stripe.Fetch(context.Background(), 0, 3000, []*stripe.Pipeline{only}, stripe.Options{
		SegmentSize:   1000,
		Clock:         clock,
		Fetch:         hangFetch,
		MinRTO:        30 * time.Millisecond,
		DeadThreshold: 2,
	})
	if !errors.Is(err, stripe.ErrNoPipelines) {
		t.Fatalf("err = %v, want ErrNoPipelines", err)
	}
	if !only.Status().Dead {
		t.Fatal("pipeline should be dead after consecutive timeouts")
	}
}

func TestFetchRejectsDeadInput(t *testing.T) {
	clock := testbed.AutoClock(t)
	only := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	if _, err := stripe.Fetch(context.Background(), 0, 1000, []*stripe.Pipeline{only}, stripe.Options{
		SegmentSize:   500,
		Clock:         clock,
		Fetch:         hangFetch,
		MinRTO:        30 * time.Millisecond,
		DeadThreshold: 1,
	}); !errors.Is(err, stripe.ErrNoPipelines) {
		t.Fatalf("first fetch err = %v, want ErrNoPipelines", err)
	}
	// The pipeline is now dead; a subsequent Fetch must refuse it up front.
	if _, err := stripe.Fetch(context.Background(), 0, 1000, []*stripe.Pipeline{only}, stripe.Options{
		Clock: clock,
		Fetch: hangFetch,
	}); !errors.Is(err, stripe.ErrNoPipelines) {
		t.Fatalf("second fetch err = %v, want ErrNoPipelines", err)
	}
}

func TestShortSegmentIsLoss(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	p2 := stripe.NewPipeline(nil, testPath(2), 20*time.Millisecond, time.Millisecond)
	var mu sync.Mutex
	shorted := false
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment) ([]byte, error) {
		select {
		case <-clock.After(10 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		truncate := p == p1 && !shorted
		shorted = shorted || truncate
		mu.Unlock()
		data := pattern(seg.Offset, seg.Length)
		if truncate {
			return data[:seg.Length-1], nil
		}
		return data, nil
	}
	res, err := stripe.Fetch(context.Background(), 0, 4000, []*stripe.Pipeline{p1, p2}, stripe.Options{
		SegmentSize: 1000,
		Clock:       clock,
		Fetch:       fetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, res.Data)
	if res.Retries == 0 {
		t.Fatal("short segment should count as a retry")
	}
	if p1.Status().Losses == 0 {
		t.Fatal("short segment should charge a loss to its pipeline")
	}
}

func TestObserveReceivesSegmentRTTs(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	p2 := stripe.NewPipeline(nil, testPath(2), 10*time.Millisecond, time.Millisecond)
	samples := make(map[string]int)
	var badRTT bool
	res, err := stripe.Fetch(context.Background(), 0, 8000, []*stripe.Pipeline{p1, p2}, stripe.Options{
		SegmentSize: 1000,
		Clock:       clock,
		Fetch:       delayFetch(clock, 10*time.Millisecond),
		Observe: func(path *segment.Path, rtt time.Duration) {
			samples[path.Fingerprint()]++
			if rtt <= 0 {
				badRTT = true
			}
		},
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, res.Data)
	total := samples[p1.Path().Fingerprint()] + samples[p2.Path().Fingerprint()]
	if total != 8 {
		t.Fatalf("observed %d segment RTTs, want 8 (%v)", total, samples)
	}
	if badRTT {
		t.Fatal("observed a non-positive RTT on the virtual clock")
	}
}

func TestZeroLengthFetch(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 0, 0)
	res, err := stripe.Fetch(context.Background(), 0, 0, []*stripe.Pipeline{p1}, stripe.Options{
		Clock: clock,
		Fetch: hangFetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(res.Data) != 0 || res.Retries != 0 {
		t.Fatalf("zero-length fetch returned %d bytes, %d retries", len(res.Data), res.Retries)
	}
}

func TestContextCancel(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() {
		_, err = stripe.Fetch(ctx, 0, 10_000, []*stripe.Pipeline{p1}, stripe.Options{
			SegmentSize: 1000,
			Clock:       clock,
			Fetch:       hangFetch,
			MinRTO:      time.Hour, // never time out; only cancel can end this
		})
		close(done)
	}()
	cancel()
	select {
	case <-done:
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch did not return after context cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
