// Package stripe implements segmented multipath transfers: a large fetch is
// split into fixed-size segments and the segments are pulled concurrently
// over a set of connections riding link-disjoint paths. Each path owns one
// Pipeline — its own RTT estimator, AIMD congestion window (counted in
// segments), and retransmit timer, modeled on ndn-dpdk's segmented
// fetch-algo design — and a single-threaded scheduler assigns every segment
// to the pipeline with free window and the best pessimistic RTT estimate.
// A pipeline whose window collapses (consecutive timeouts) or whose
// connection dies has its outstanding segments reassigned to the survivors,
// so a mid-transfer path kill degrades throughput to the remaining paths
// instead of failing the transfer.
//
// The package deliberately knows nothing about path selection or telemetry
// planes: callers (pan.Dialer.DialStriped) pick the disjoint paths, seed the
// estimators from monitor telemetry, and feed ack RTTs back into the shared
// monitor. The unit of work is a FetchFunc — "fetch these bytes over this
// pipeline's connection" — so the same scheduler drives HTTP range requests
// (the proxy) and raw test protocols alike.
package stripe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/squic"
)

// Segment is one contiguous piece of the transfer.
type Segment struct {
	// Index is the segment's position in the transfer, 0-based.
	Index int
	// Offset is the absolute byte offset of the segment's first byte.
	Offset int64
	// Length is the segment's size in bytes (the final segment may be
	// shorter than Options.SegmentSize).
	Length int
}

// FetchFunc reads one segment over the pipeline's connection into dst (of
// seg.Length bytes) and returns how many bytes the response held: any other
// count than seg.Length is a protocol error. It MUST honor ctx cancellation
// — the scheduler cancels attempts it has timed out or reassigned, and
// Fetch waits for every attempt to return.
type FetchFunc func(ctx context.Context, p *Pipeline, seg Segment, dst []byte) (int, error)

// Defaults.
const (
	DefaultSegmentSize   = 128 << 10
	DefaultInitialCwnd   = 3
	DefaultMaxCwnd       = 32
	DefaultDeadThreshold = 2
	DefaultMinRTO        = 250 * time.Millisecond
	maxRTO               = time.Minute
)

// Options parameterizes a Fetch.
type Options struct {
	// SegmentSize is the stripe granularity in bytes (default 128 KiB).
	SegmentSize int
	// Clock drives retransmit timers (virtual in simulation). Required.
	Clock netsim.Clock
	// Fetch retrieves one segment. Required.
	Fetch FetchFunc
	// Observe, when set, receives every accepted segment RTT with the path
	// it was measured on — a per-segment telemetry tap. (Connection-level
	// ack RTTs are the caller's to wire via squic.Conn.OnRTTSample.)
	Observe func(path *segment.Path, rtt time.Duration)
	// MaxCwnd caps each pipeline's window, in segments (default 32).
	MaxCwnd int
	// DeadThreshold is the number of consecutive timeouts after which a
	// pipeline is abandoned and its outstanding segments reassigned
	// (default 2). A dead connection abandons the pipeline immediately.
	DeadThreshold int
	// MinRTO floors the retransmit timeout (default 250ms).
	MinRTO time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if o.MaxCwnd <= 0 {
		o.MaxCwnd = DefaultMaxCwnd
	}
	if o.DeadThreshold <= 0 {
		o.DeadThreshold = DefaultDeadThreshold
	}
	if o.MinRTO <= 0 {
		o.MinRTO = DefaultMinRTO
	}
	return o
}

// Pipeline is the per-path transfer state: one connection plus the RTT
// estimator, AIMD congestion window, and failure counters the scheduler
// consults. Its mutable state is written only by the scheduler goroutine
// during a Fetch; Status takes a consistent snapshot at any time.
type Pipeline struct {
	conn *squic.Conn
	path *segment.Path

	// statusMu guards the snapshot-visible fields below against concurrent
	// Status readers (CLI liveness, tests). The scheduler goroutine is the
	// only writer, so its own lock-free reads stay consistent.
	statusMu sync.Mutex //lint:lockorder stripestatus

	// Jacobson/Karels estimator over segment completion times. Seeded from
	// monitor telemetry so the first scheduling decisions are informed.
	srtt, rttvar time.Duration
	samples      int
	// baseRTT is the minimum segment completion time seen on this pipeline —
	// the congestion-free baseline the window gate compares against.
	baseRTT time.Duration

	cwnd     int // window, in segments
	ssthresh int
	ackRun   int // acks since the last window increment (congestion avoidance)
	inflight int
	consecTO int
	backoff  uint
	dead     bool

	bytes  int64 // payload bytes this pipeline delivered
	acks   int   // segments this pipeline completed
	losses int   // timeouts + errors charged to this pipeline

	// lossAt is the start time of the newest attempt whose loss was charged
	// against the window — the Karn-style recovery marker. Attempts launched
	// before it that also time out belong to the same congestion event and
	// are requeued without escalating consecTO/backoff again. Scheduler
	// goroutine only.
	lossAt time.Time
}

// NewPipeline wraps a connection and its path for striped use. conn may be
// nil when the FetchFunc does not need it (tests, custom transports); a
// non-nil conn's death additionally abandons the pipeline on the first
// loss. seedRTT and seedDev, when positive, prime the RTT estimator (pass
// the monitor's smoothed RTT and deviation); zero leaves the estimator
// empty until the first segment completes.
func NewPipeline(conn *squic.Conn, path *segment.Path, seedRTT, seedDev time.Duration) *Pipeline {
	p := &Pipeline{
		conn:     conn,
		path:     path,
		cwnd:     DefaultInitialCwnd,
		ssthresh: DefaultMaxCwnd,
	}
	if seedRTT > 0 {
		p.srtt = seedRTT
		p.rttvar = seedDev
		if p.rttvar <= 0 {
			p.rttvar = seedRTT / 2
		}
	}
	return p
}

// Conn returns the pipeline's connection.
func (p *Pipeline) Conn() *squic.Conn { return p.conn }

// Path returns the pipeline's forwarding path.
func (p *Pipeline) Path() *segment.Path { return p.path }

// PipelineStatus is a read-only snapshot for liveness printouts.
type PipelineStatus struct {
	Fingerprint string
	Bytes       int64
	Segments    int
	Losses      int
	Cwnd        int
	SRTT        time.Duration
	Dead        bool
}

// Status snapshots the pipeline; safe to call mid-fetch (the liveness
// printouts and fault-injection tests read while the scheduler runs).
func (p *Pipeline) Status() PipelineStatus {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	return PipelineStatus{
		Fingerprint: p.path.Fingerprint(),
		Bytes:       p.bytes,
		Segments:    p.acks,
		Losses:      p.losses,
		Cwnd:        p.cwnd,
		SRTT:        p.srtt,
		Dead:        p.dead,
	}
}

// pessimistic is the scheduler's ranking estimate: smoothed RTT plus twice
// its deviation — the same idiom the monitor's PathStats penalty uses, so a
// jittery path schedules behind a steady one with the same mean.
func (p *Pipeline) pessimistic() time.Duration { return p.srtt + 2*p.rttvar }

// rto is the attempt timeout: generous against in-window queueing growth
// (completion time scales with the window during slow start), exponentially
// backed off per consecutive timeout, floored and capped.
func (p *Pipeline) rto(minRTO time.Duration) time.Duration {
	base := 3*p.srtt + 4*p.rttvar
	if base < minRTO {
		base = minRTO
	}
	shift := p.backoff
	if shift > 6 {
		shift = 6
	}
	rto := base << shift
	if rto <= 0 || rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// onAck folds one completed segment into the estimator and grows the window:
// slow start below ssthresh, one-segment-per-window additive increase above.
// Growth is RTT-gated (Vegas-style): once completion times exceed twice the
// congestion-free baseline, the bottleneck queue is already deep — the
// drop-free simulated links never signal loss, so without the gate the window
// would inflate sojourn times until the retransmit timer fired spuriously.
func (p *Pipeline) onAck(rtt time.Duration, maxCwnd int) {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if p.baseRTT == 0 || rtt < p.baseRTT {
		p.baseRTT = rtt
	}
	if p.samples == 0 && p.srtt == 0 {
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		d := p.srtt - rtt
		if d < 0 {
			d = -d
		}
		p.rttvar = (3*p.rttvar + d) / 4
		p.srtt = (7*p.srtt + rtt) / 8
	}
	p.samples++
	p.consecTO = 0
	p.backoff = 0
	switch {
	case rtt > 2*p.baseRTT:
		// Queueing delay already exceeds the propagation time: hold the
		// window and let the queue drain.
	case p.cwnd < p.ssthresh:
		p.cwnd++
	default:
		p.ackRun++
		if p.ackRun >= p.cwnd {
			p.ackRun = 0
			p.cwnd++
		}
	}
	if p.cwnd > maxCwnd {
		p.cwnd = maxCwnd
	}
	p.acks++
}

// onLoss records a failed attempt. A charged loss halves the window
// (multiplicative decrease, floored at one segment) and counts toward the
// dead threshold; an uncharged one — a timeout from the same in-flight
// window as an already-charged loss — only bumps the loss counter, so one
// congestion event cannot kill a pipeline by expiring several timers that
// were all armed before the first one fired.
func (p *Pipeline) onLoss(deadThreshold int, charge bool) {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	p.losses++
	if charge {
		p.consecTO++
		p.backoff++
		p.ssthresh = p.cwnd / 2
		if p.ssthresh < 1 {
			p.ssthresh = 1
		}
		p.cwnd = p.ssthresh
	}
	if p.consecTO >= deadThreshold || (p.conn != nil && p.conn.Err() != nil) {
		p.dead = true
	}
}

// addBytes credits delivered payload under the status lock.
func (p *Pipeline) addBytes(n int64) {
	p.statusMu.Lock()
	defer p.statusMu.Unlock()
	p.bytes += n
}

// Result accounts for a completed striped fetch; the bytes themselves are
// in the caller's buffer.
type Result struct {
	// PerPath maps path fingerprints to the bytes each path delivered — the
	// per-path byte split surfaced in proxy stats.
	PerPath map[string]int64
	// Retries counts segment attempts that timed out or failed and were
	// re-dispatched.
	Retries int
	// Reassigned counts outstanding segments moved off a collapsed or dead
	// pipeline.
	Reassigned int
}

// ErrNoPipelines is returned when Fetch is called without a live pipeline.
var ErrNoPipelines = errors.New("stripe: no live pipelines")

// attempt is one dispatch of one segment on one pipeline.
type attempt struct {
	seg    Segment
	pipe   *Pipeline
	start  time.Time
	cancel context.CancelFunc
	timer  netsim.Timer // the RTO timer
	buf    []byte       // the segment's slot if owner, else a private buffer
	owner  bool
}

// completion is the single event every attempt eventually produces.
type completion struct {
	a        *attempt
	n        int
	err      error
	rtt      time.Duration
	timedOut bool
}

// slotState is the scheduler's view of one segment's slot in the caller's
// buffer. The segment's first attempt owns the slot and reads straight into
// it; every later attempt reads into a private buffer, so two writers never
// share a slot.
type slotState struct{ done, owned bool }

// fetcher is the scheduler state for one Fetch call.
type fetcher struct {
	ctx   context.Context
	opts  Options
	pipes []*Pipeline

	segs        []Segment
	slots       []slotState
	pending     []int // segment indices awaiting (re-)dispatch, FIFO
	outstanding map[int]*attempt
	// zombies are timed-out attempts left running (Karn-style): the request
	// was already sent, so on a spurious timeout the data usually still
	// arrives — first completion wins, and the loser is canceled. Canceling
	// at timeout instead would re-send the whole segment and amplify the very
	// congestion that inflated the RTT.
	zombies   map[int][]*attempt
	events    chan completion
	closed    chan struct{} // gates attempt sends after Fetch returns
	inflight  int
	remaining int
	base      int64  // offset of the fetched range's first byte
	dst       []byte // the caller's buffer for the range
	// deferred are the winners that are not their slot's owner: shutdown
	// copies them in once every attempt, the owner too, has returned.
	deferred []*attempt
	attempts sync.WaitGroup // every attempt's goroutines

	result Result
}

// send delivers an attempt's event unless the fetch is already over — a
// canceled attempt finishing after shutdown must not block forever on a
// channel nobody reads.
func (f *fetcher) send(ev completion) {
	select {
	case f.events <- ev:
	case <-f.closed:
	}
}

// Fetch retrieves the byte range [off, off+len(dst)) striped across the
// given pipelines into dst. It blocks until the range is complete, the
// context is canceled, or every pipeline has died with segments still
// missing, and then until every attempt it started has returned. The
// pipelines' congestion and RTT state persists across calls, warm-starting
// subsequent fetches on the same set.
func Fetch(ctx context.Context, off int64, dst []byte, pipes []*Pipeline, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Fetch == nil || opts.Clock == nil {
		return nil, errors.New("stripe: Options.Fetch and Options.Clock are required")
	}
	live := pipes[:0:0]
	for _, p := range pipes {
		if !p.dead && (p.conn == nil || p.conn.Err() == nil) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, ErrNoPipelines
	}

	f := &fetcher{
		ctx:         ctx,
		opts:        opts,
		pipes:       live,
		outstanding: make(map[int]*attempt),
		zombies:     make(map[int][]*attempt),
		base:        off,
		dst:         dst,
	}
	length := int64(len(dst))
	for o := int64(0); o < length; o += int64(opts.SegmentSize) {
		n := length - o
		if n > int64(opts.SegmentSize) {
			n = int64(opts.SegmentSize)
		}
		f.segs = append(f.segs, Segment{Index: len(f.segs), Offset: off + o, Length: int(n)})
	}
	f.slots = make([]slotState, len(f.segs))
	f.pending = make([]int, len(f.segs))
	for i := range f.segs {
		f.pending[i] = i
	}
	f.remaining = len(f.segs)
	// Sized to the summed windows so attempt goroutines rarely block; the
	// run loop keeps consuming, and the closed gate releases any straggler
	// once the fetch is over.
	f.events = make(chan completion, len(live)*opts.MaxCwnd+1)
	f.closed = make(chan struct{})
	f.result.PerPath = make(map[string]int64, len(live))

	err := f.run()
	f.shutdown()
	if err != nil {
		return nil, err
	}
	return &f.result, nil
}

func (f *fetcher) run() error {
	for f.remaining > 0 {
		f.dispatch()
		if f.inflight == 0 {
			// Nothing outstanding and nothing dispatchable: every pipeline
			// is dead with segments still missing.
			return fmt.Errorf("%w: %d of %d segments missing", ErrNoPipelines, f.remaining, len(f.segs))
		}
		select {
		case ev := <-f.events:
			f.handle(ev)
		case <-f.ctx.Done():
			return f.ctx.Err()
		}
	}
	return nil
}

// dispatch assigns pending segments to pipelines while any live pipeline has
// free window, always choosing the live free-window pipeline with the best
// (lowest) pessimistic RTT estimate; index order breaks ties, which keeps
// the schedule deterministic.
func (f *fetcher) dispatch() {
	for len(f.pending) > 0 {
		var best *Pipeline
		for _, p := range f.pipes {
			if p.dead || p.inflight >= p.cwnd {
				continue
			}
			if best == nil || p.pessimistic() < best.pessimistic() {
				best = p
			}
		}
		if best == nil {
			return
		}
		idx := f.pending[0]
		f.pending = f.pending[1:]
		if f.slots[idx].done {
			continue // completed by a late duplicate while queued
		}
		f.start(best, f.segs[idx])
	}
}

// start launches one attempt: a fetch goroutine plus an RTO timer, racing to
// produce the attempt's single completion event.
func (f *fetcher) start(p *Pipeline, seg Segment) {
	actx, cancel := context.WithCancel(f.ctx)
	a := &attempt{seg: seg, pipe: p, start: f.opts.Clock.Now(), cancel: cancel}
	if st := &f.slots[seg.Index]; st.owned {
		a.buf = make([]byte, seg.Length)
	} else {
		st.owned, a.owner = true, true
		a.buf = f.dst[seg.Offset-f.base:][:seg.Length]
	}
	f.outstanding[seg.Index] = a
	p.inflight++
	f.inflight++

	clock := f.opts.Clock
	resCh := make(chan completion, 1)
	f.attempts.Add(1)
	go func() {
		n, err := f.opts.Fetch(actx, p, seg, a.buf)
		resCh <- completion{a: a, n: n, err: err, rtt: clock.Since(a.start)}
	}()
	timeout := make(chan struct{})
	a.timer = clock.AfterFunc(p.rto(f.opts.MinRTO), func() { close(timeout) })
	go func() {
		// Both branches wait for the fetch's result, so this goroutine ends
		// only after the FetchFunc call has returned.
		defer f.attempts.Done()
		select {
		case ev := <-resCh:
			a.timer.Stop()
			f.send(ev)
		case <-timeout:
			f.send(completion{a: a, timedOut: true})
			// The attempt lives on as a zombie — its segment is requeued, but
			// if the original response still arrives first it wins and the
			// replacement is canceled. The scheduler cancels zombies when the
			// segment completes, the pipeline is abandoned, or the fetch ends.
			f.send(<-resCh)
		}
	}()
}

// handle folds one attempt outcome into the transfer state.
func (f *fetcher) handle(ev completion) {
	a := ev.a
	current := f.outstanding[a.seg.Index] == a
	if current {
		delete(f.outstanding, a.seg.Index)
		a.pipe.inflight--
		f.inflight--
	}
	switch {
	case ev.timedOut:
		if !current {
			return // already reassigned by a pipeline abandonment
		}
		f.result.Retries++
		f.zombies[a.seg.Index] = append(f.zombies[a.seg.Index], a)
		// Charge the window (and the dead threshold) only once per in-flight
		// window: attempts launched before the last charged loss expired on
		// timers armed before that loss backed anything off.
		charge := a.start.After(a.pipe.lossAt)
		if charge {
			a.pipe.lossAt = f.opts.Clock.Now()
		}
		a.pipe.onLoss(f.opts.DeadThreshold, charge)
		f.requeue(a.seg.Index)
		if a.pipe.dead {
			f.abandon(a.pipe)
		}
	case ev.err != nil:
		if !current {
			return // canceled duplicate or reassigned attempt
		}
		f.result.Retries++
		a.pipe.onLoss(f.opts.DeadThreshold, true)
		f.requeue(a.seg.Index)
		if a.pipe.dead {
			f.abandon(a.pipe)
		}
	default:
		if ev.n != a.seg.Length {
			// A short or overlong segment is a protocol error on this
			// pipeline, not data.
			if current {
				f.result.Retries++
				a.pipe.onLoss(f.opts.DeadThreshold, true)
				f.requeue(a.seg.Index)
				if a.pipe.dead {
					f.abandon(a.pipe)
				}
			}
			return
		}
		if f.slots[a.seg.Index].done {
			return // duplicate delivery; first completion won
		}
		if !a.owner {
			f.deferred = append(f.deferred, a)
		}
		f.slots[a.seg.Index].done = true
		f.remaining--
		f.reapZombies(a.seg.Index)
		a.pipe.addBytes(int64(ev.n))
		f.result.PerPath[a.pipe.path.Fingerprint()] += int64(ev.n)
		if current {
			a.pipe.onAck(ev.rtt, f.opts.MaxCwnd)
			if f.opts.Observe != nil {
				f.opts.Observe(a.pipe.path, ev.rtt)
			}
		} else if dup := f.outstanding[a.seg.Index]; dup != nil {
			// A late success beat the replacement attempt: cancel it.
			f.cancelAttempt(dup)
		}
	}
}

// requeue puts a segment at the FRONT of the pending queue so recovery work
// preempts new segments — the in-order prefix completes as early as
// possible.
func (f *fetcher) requeue(idx int) {
	f.pending = append(f.pending, 0)
	copy(f.pending[1:], f.pending)
	f.pending[0] = idx
}

// abandon reassigns every outstanding segment away from a dead pipeline and
// gives up on its zombies — a dead path's late responses are not coming.
func (f *fetcher) abandon(p *Pipeline) {
	for idx, a := range f.outstanding {
		if a.pipe != p {
			continue
		}
		f.cancelAttempt(a)
		f.requeue(idx)
		f.result.Reassigned++
	}
	for idx, zs := range f.zombies {
		kept := zs[:0]
		for _, z := range zs {
			if z.pipe == p {
				z.cancel()
			} else {
				kept = append(kept, z)
			}
		}
		if len(kept) == 0 {
			delete(f.zombies, idx)
		} else {
			f.zombies[idx] = kept
		}
	}
}

// reapZombies cancels the leftover timed-out attempts of a completed segment.
func (f *fetcher) reapZombies(idx int) {
	for _, z := range f.zombies[idx] {
		z.cancel()
	}
	delete(f.zombies, idx)
}

// cancelAttempt aborts an in-flight attempt and removes it from the
// outstanding set. Its eventual event arrives as non-current and is ignored.
func (f *fetcher) cancelAttempt(a *attempt) {
	a.cancel()
	a.timer.Stop()
	delete(f.outstanding, a.seg.Index)
	a.pipe.inflight--
	f.inflight--
}

// shutdown cancels whatever is still outstanding (duplicates at completion,
// everything on error/cancellation), releases any attempt goroutine still
// trying to deliver its event, waits for every attempt to return, and only
// then copies in the winners that read into private buffers.
func (f *fetcher) shutdown() {
	for _, a := range f.outstanding {
		a.cancel()
		a.timer.Stop()
	}
	for _, zs := range f.zombies {
		for _, z := range zs {
			z.cancel()
		}
	}
	f.outstanding = nil
	f.zombies = nil
	close(f.closed)
	f.attempts.Wait()
	for _, a := range f.deferred {
		copy(f.dst[a.seg.Offset-f.base:], a.buf)
	}
}
