package stripe_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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

// fill writes the deterministic transfer content from off into dst and
// returns its length: byte k of the resource is (k mod 251), so any
// reassembly error shows up as a mismatch.
func fill(dst []byte, off int64) int {
	for i := range dst {
		dst[i] = byte((off + int64(i)) % 251)
	}
	return len(dst)
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
	return func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		select {
		case <-clock.After(delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		return fill(dst, seg.Offset), nil
	}
}

// hangFetch never returns until ctx is canceled.
func hangFetch(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}

func TestFetchReassembles(t *testing.T) {
	clock := testbed.AutoClock(t)
	fast := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	slow := stripe.NewPipeline(nil, testPath(2), 40*time.Millisecond, time.Millisecond)
	delays := map[*stripe.Pipeline]time.Duration{fast: 10 * time.Millisecond, slow: 40 * time.Millisecond}
	const off, length = int64(5000), int64(100_000)
	dst := make([]byte, length)
	res, err := stripe.Fetch(context.Background(), off, dst, []*stripe.Pipeline{fast, slow}, stripe.Options{
		SegmentSize: 4 << 10,
		Clock:       clock,
		Fetch: func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
			return delayFetch(clock, delays[p])(ctx, p, seg, dst)
		},
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, off, dst)
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
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		mu.Lock()
		if _, ok := first[seg.Index]; !ok {
			first[seg.Index] = p
		}
		mu.Unlock()
		return delayFetch(clock, 10*time.Millisecond)(ctx, p, seg, dst)
	}
	// Six segments, initial window three per pipeline: the scheduler must fill
	// the low-pessimistic pipeline's window before touching the other.
	dst := make([]byte, 6000)
	_, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{slow, fast}, stripe.Options{
		SegmentSize: 1000,
		Clock:       clock,
		Fetch:       fetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, dst)
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
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		if p == dying {
			return hangFetch(ctx, p, seg, dst)
		}
		return delayFetch(clock, 20*time.Millisecond)(ctx, p, seg, dst)
	}
	const length = int64(6000)
	dst := make([]byte, length)
	res, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{dying, healthy}, stripe.Options{
		SegmentSize:   1000,
		Clock:         clock,
		Fetch:         fetch,
		MinRTO:        50 * time.Millisecond,
		DeadThreshold: 1,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, dst)
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
	_, err := stripe.Fetch(context.Background(), 0, make([]byte, 3000), []*stripe.Pipeline{only}, stripe.Options{
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
	if _, err := stripe.Fetch(context.Background(), 0, make([]byte, 1000), []*stripe.Pipeline{only}, stripe.Options{
		SegmentSize:   500,
		Clock:         clock,
		Fetch:         hangFetch,
		MinRTO:        30 * time.Millisecond,
		DeadThreshold: 1,
	}); !errors.Is(err, stripe.ErrNoPipelines) {
		t.Fatalf("first fetch err = %v, want ErrNoPipelines", err)
	}
	// The pipeline is now dead; a subsequent Fetch must refuse it up front.
	if _, err := stripe.Fetch(context.Background(), 0, make([]byte, 1000), []*stripe.Pipeline{only}, stripe.Options{
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
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		select {
		case <-clock.After(10 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		mu.Lock()
		truncate := p == p1 && !shorted
		shorted = shorted || truncate
		mu.Unlock()
		if truncate {
			return fill(dst[:seg.Length-1], seg.Offset), nil
		}
		return fill(dst, seg.Offset), nil
	}
	dst := make([]byte, 4000)
	res, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{p1, p2}, stripe.Options{
		SegmentSize: 1000,
		Clock:       clock,
		Fetch:       fetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	checkPattern(t, 0, dst)
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
	dst := make([]byte, 8000)
	_, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{p1, p2}, stripe.Options{
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
	checkPattern(t, 0, dst)
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
	res, err := stripe.Fetch(context.Background(), 0, nil, []*stripe.Pipeline{p1}, stripe.Options{
		Clock: clock,
		Fetch: hangFetch,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(res.PerPath) != 0 || res.Retries != 0 {
		t.Fatalf("zero-length fetch moved %v bytes, %d retries", res.PerPath, res.Retries)
	}
}

func TestContextCancel(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() {
		_, err = stripe.Fetch(ctx, 0, make([]byte, 10_000), []*stripe.Pipeline{p1}, stripe.Options{
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

// running wraps fetch with a count of its calls still in progress.
func running(fetch stripe.FetchFunc) (stripe.FetchFunc, *atomic.Int32) {
	var n atomic.Int32
	return func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		n.Add(1)
		defer n.Add(-1)
		return fetch(ctx, p, seg, dst)
	}, &n
}

// slowExitFetch hangs until ctx is canceled, then takes a while to unwind,
// as a transport closing its stream would.
func slowExitFetch(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
	<-ctx.Done()
	for range 100 {
		runtime.Gosched()
	}
	return 0, ctx.Err()
}

// TestSlotOwnerStallsReplacementWins: segment 0's first attempt owns its
// slot, stalls past its RTO and keeps writing garbage into the slot, more
// of it once canceled, while its replacement wins into a private buffer.
// The body must still be exact: the replacement's bytes are copied in only
// after the owner has returned, and Fetch waits for that.
func TestSlotOwnerStallsReplacementWins(t *testing.T) {
	clock := testbed.AutoClock(t)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	p2 := stripe.NewPipeline(nil, testPath(2), 10*time.Millisecond, time.Millisecond)
	var mu sync.Mutex
	var owner []byte // the owner's dst, for the test to check it is the slot
	ownerDone := make(chan struct{})
	fetch := func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		mu.Lock()
		isOwner := seg.Index == 0 && owner == nil
		if isOwner {
			owner = dst
		}
		mu.Unlock()
		if !isOwner {
			return delayFetch(clock, 10*time.Millisecond)(ctx, p, seg, dst)
		}
		defer close(ownerDone)
		for i := 0; ; i = (i + 1) % len(dst) {
			select {
			case <-clock.After(10 * time.Millisecond):
				dst[i] = ^byte((seg.Offset + int64(i)) % 251)
			case <-ctx.Done():
				for j := range dst {
					dst[j] = ^byte((seg.Offset + int64(j)) % 251)
				}
				return 0, ctx.Err()
			}
		}
	}
	fetch, inFetch := running(fetch)
	dst := make([]byte, 1000)
	res, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{p1, p2}, stripe.Options{
		SegmentSize: 100,
		Clock:       clock,
		Fetch:       fetch,
		MinRTO:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if n := inFetch.Load(); n != 0 {
		t.Fatalf("Fetch returned with %d attempts still running", n)
	}
	<-ownerDone
	if &owner[0] != &dst[0] {
		t.Fatal("segment 0's first attempt did not read into its slot")
	}
	checkPattern(t, 0, dst)
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want the owner's one timeout", res.Retries)
	}
}

// TestFetchWaitsForAttempts: whether it succeeds, is canceled or loses
// every pipeline, Fetch returns only after every FetchFunc call it made has
// returned.
func TestFetchWaitsForAttempts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fetch   func(clock netsim.Clock, cancel context.CancelFunc) stripe.FetchFunc
		wantErr error
	}{
		{"success", func(clock netsim.Clock, _ context.CancelFunc) stripe.FetchFunc {
			// Segment 0's first attempt hangs into a zombie that the
			// replacement's win cancels.
			var first atomic.Bool
			return func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
				if seg.Index == 0 && first.CompareAndSwap(false, true) {
					return slowExitFetch(ctx, p, seg, dst)
				}
				return delayFetch(clock, 10*time.Millisecond)(ctx, p, seg, dst)
			}
		}, nil},
		{"canceled", func(_ netsim.Clock, cancel context.CancelFunc) stripe.FetchFunc {
			return func(ctx context.Context, p *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
				if seg.Index == 2 {
					cancel()
				}
				return slowExitFetch(ctx, p, seg, dst)
			}
		}, context.Canceled},
		{"all dead", func(netsim.Clock, context.CancelFunc) stripe.FetchFunc {
			return slowExitFetch
		}, stripe.ErrNoPipelines},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := testbed.AutoClock(t)
			p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
			p2 := stripe.NewPipeline(nil, testPath(2), 10*time.Millisecond, time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fetch, inFetch := running(tc.fetch(clock, cancel))
			dst := make([]byte, 1000)
			_, err := stripe.Fetch(ctx, 0, dst, []*stripe.Pipeline{p1, p2}, stripe.Options{
				SegmentSize:   100,
				Clock:         clock,
				Fetch:         fetch,
				MinRTO:        50 * time.Millisecond,
				DeadThreshold: 1,
			})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if n := inFetch.Load(); n != 0 {
				t.Fatalf("Fetch returned with %d attempts still running", n)
			}
			if err == nil {
				checkPattern(t, 0, dst)
			}
		})
	}
}

// TestFetchAllocatesNoSegmentBuffers: segments land in the caller's buffer,
// so a 4 MiB fetch allocates only the scheduler's bookkeeping, not a copy
// of the body (a buffer per segment plus a reassembled copy is 8 MiB). The
// bound is an average over several fetches, because the runtime allocates a
// goroutine descriptor only when it has no idle one to reuse.
func TestFetchAllocatesNoSegmentBuffers(t *testing.T) {
	const length, fetches = 4 << 20, 8
	resource := make([]byte, length)
	fill(resource, 0)
	p1 := stripe.NewPipeline(nil, testPath(1), 10*time.Millisecond, time.Millisecond)
	p2 := stripe.NewPipeline(nil, testPath(2), 10*time.Millisecond, time.Millisecond)
	dst := make([]byte, length)
	opts := stripe.Options{
		Clock: testbed.NewClock(),
		Fetch: func(_ context.Context, _ *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
			return copy(dst, resource[seg.Offset:]), nil
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range fetches {
		if _, err := stripe.Fetch(context.Background(), 0, dst, []*stripe.Pipeline{p1, p2}, opts); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / fetches; per >= 64<<10 {
		t.Fatalf("a 4 MiB fetch allocated %d bytes, want < 64 KiB", per)
	}
	checkPattern(t, 0, dst)
}
