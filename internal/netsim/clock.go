// Package netsim provides the simulated network substrate every other layer
// of this repository runs on: a pluggable clock (real or virtual), lossy
// latency/bandwidth-shaped datagram links, and latency-shaped in-memory
// stream connections that model the legacy BGP/IP path. Links and streams
// run on the virtual clock, where each direction is a FIFO queue: a packet
// in flight is a slot in its direction's ring, and the clock fires the
// heads of the rings and its timers in one (deadline, seq) order.
//
// netsim is deliberately SCION-agnostic: the SCION data plane
// (internal/dataplane) builds border routers on top of netsim links, and the
// legacy IP fallback path (internal/proxy) dials netsim stream connections,
// so both worlds share one simulated substrate and one clock, as in the
// paper's testbeds (Figures 2 and 4).
package netsim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time so experiments can run on a fast, deterministic
// virtual clock while production binaries use the real one. All latency
// injection in this repository flows through a Clock.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks for d of clock time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock time after d.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run after d. The returned Timer's Stop
	// cancels the call.
	AfterFunc(d time.Duration, f func()) Timer
	// Since returns the clock time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a call scheduled with Clock.AfterFunc: a *time.Timer on the
// RealClock, the timer's heap node on a SimClock.
type Timer interface {
	// Stop cancels the call and reports whether it stopped it before it
	// ran.
	Stop() bool
}

// RealClock is the production Clock backed by package time.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() } //lint:allow-wallclock RealClock is the wall-clock boundary

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) } //lint:allow-wallclock RealClock is the wall-clock boundary

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) } //lint:allow-wallclock RealClock is the wall-clock boundary

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f) //lint:allow-wallclock RealClock is the wall-clock boundary
}

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) } //lint:allow-wallclock RealClock is the wall-clock boundary

// event is one node of a SimClock's heap: an app timer (AfterFunc, Sleep,
// After), or a delivery queue keyed by its head entry. An app timer is its
// own Timer.
type event struct {
	at    int64          // deadline, ns since the clock's epoch
	seq   uint64         // tie-break so equal deadlines fire in schedule order
	index int            // heap index, -1 once removed
	fn    func()         // an AfterFunc timer's callback
	ch    chan time.Time // an After timer's channel, sent the fire time
	done  chan struct{}  // a Sleep timer's channel, closed on firing
	c     *SimClock      // an app timer's clock
	q     *queue         // the queue this node keys; nil for an app timer
}

// entry is one packet, stream chunk or stream EOF in flight on a queue.
type entry struct {
	at  int64
	seq uint64
	buf []byte
}

// queue is one FIFO delivery direction, a link's or a stream's, sorted by
// (at, seq) (see SimClock). The clock's lock guards it.
type queue struct {
	ev       event   // its heap node while n > 0, keyed by ring[head]
	ring     []entry // circular; len is zero or a power of two
	head, n  int
	nextFree int64                           // when the transmitter frees up
	recv     func(buf []byte) (mayWake bool) // runs each entry on arrival
}

// eventHeap is a binary min-heap on (at, seq).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

// fix restores the heap order after h[i]'s key changed.
func (h eventHeap) fix(i int) {
	for ; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h.swap(i, (i-1)/2)
	}
	for {
		j := 2*i + 1
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if j >= len(h) || !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

func (h *eventHeap) push(e *event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.fix(e.index)
}

func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old.swap(i, n)
	old[n].index = -1
	old[n] = nil
	if *h = old[:n]; i < n {
		h.fix(i)
	}
}

// SimClock is a virtual clock. Time only moves when Advance, AdvanceToNext,
// or the auto-advancer (see AutoAdvance) moves it, so durations measured with
// a SimClock are exactly the sums of scheduled delays on the critical path —
// compute time contributes zero. This is what makes the page-load-time
// experiments deterministic and fast.
//
// Pending work is of two kinds. An app timer (AfterFunc, Sleep, After) is
// one heap node. A packet on a Link, or a chunk on a stream connection, is
// not: it is an entry in its direction's queue, a ring the clock's lock
// guards, and the heap holds one node per non-empty direction, keyed by its
// head entry. A send onto a non-empty queue touches no heap; firing a head
// delivers it and re-keys the direction by its next entry. Every entry,
// timer or queued, draws its seq from the one counter at send time, and a
// direction's deadlines never decrease (see Link.SetProps), so each queue
// is sorted by (deadline, seq) and merging the heads fires everything in
// the global (deadline, seq) order one heap of all of them would.
//
// The zero value is not usable; construct with NewSimClock.
type SimClock struct {
	epoch time.Time

	mu       sync.Mutex //lint:lockorder simclock
	now      int64      // ns since epoch
	events   eventHeap
	seq      uint64
	pending  int           // app timers plus queued entries
	activity atomic.Uint64 // bumped on every schedule/fire, used by AutoAdvance
	wakes    atomic.Uint64 // bumped by every fired timer that may have woken a goroutine
}

// NewSimClock returns a SimClock starting at the given epoch.
func NewSimClock(epoch time.Time) *SimClock {
	return &SimClock{epoch: epoch}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch.Add(time.Duration(c.now))
}

// after returns now+d, saturating instead of wrapping. Called with c.mu held.
func (c *SimClock) after(d time.Duration) int64 {
	if at := c.now + int64(d); d <= 0 || at > c.now {
		return at
	}
	return math.MaxInt64
}

// Sleep implements Clock. It blocks until virtual time has advanced past
// now+d, which requires some other party (another goroutine, or the
// auto-advancer) to move the clock.
func (c *SimClock) Sleep(d time.Duration) {
	done := make(chan struct{})
	c.schedule(&event{done: done}, d)
	<-done
}

// After implements Clock.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.schedule(&event{ch: ch}, d)
	return ch
}

// AfterFunc implements Clock. Timers scheduled with non-positive delay fire
// at the current virtual instant on the next advance — never synchronously,
// so callers may schedule while holding locks their callbacks take.
func (c *SimClock) AfterFunc(d time.Duration, f func()) Timer {
	e := &event{fn: f}
	c.schedule(e, d)
	return e
}

// Stop implements Timer for an app timer.
func (e *event) Stop() bool {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.activity.Add(1)
	if e.index < 0 {
		return false
	}
	c.events.remove(e.index)
	c.pending--
	return true
}

// schedule puts the app timer e on the heap at now+d. A non-positive d
// keeps its raw deadline, so it sorts with the timers it was scheduled
// among.
func (c *SimClock) schedule(e *event, d time.Duration) {
	c.mu.Lock()
	c.activity.Add(1)
	e.at, e.seq, e.c = c.after(d), c.seq, c
	c.seq++
	c.pending++
	c.events.push(e)
	c.mu.Unlock()
}

// send puts buf on q's wire: it starts once q's transmitter frees up (or
// now), takes len(buf)·8/bandwidth to serialise (nothing when bandwidth is
// zero), and arrives latency later. Its deadline is clamped to q's tail,
// so q stays sorted even if latency fell since the last send.
func (c *SimClock) send(q *queue, bandwidth int64, latency time.Duration, buf []byte) {
	var tx int64
	if bandwidth > 0 {
		tx = int64(len(buf)) * 8 * int64(time.Second) / bandwidth
	}
	c.mu.Lock()
	c.activity.Add(1)
	q.nextFree = max(q.nextFree, c.now) + tx
	at := q.nextFree + int64(latency)
	if q.n == len(q.ring) {
		q.grow()
	}
	mask := len(q.ring) - 1
	if q.n > 0 {
		at = max(at, q.ring[(q.head+q.n-1)&mask].at)
	} else {
		q.ev = event{at: at, seq: c.seq, q: q}
		c.events.push(&q.ev)
	}
	q.ring[(q.head+q.n)&mask] = entry{at: at, seq: c.seq, buf: buf}
	q.n++
	c.seq++
	c.pending++
	c.mu.Unlock()
}

// grow doubles q's full ring, keeping its entries in order.
func (q *queue) grow() {
	ring := make([]entry, max(4, 2*len(q.ring)))
	copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// Since implements Clock.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Advance moves virtual time forward by d, firing every timer whose deadline
// falls within the window, in deadline order.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.after(d)
	c.mu.Unlock()
	c.advanceTo(target)
}

// AdvanceToNext jumps virtual time to the earliest pending timer deadline and
// fires every timer due at that instant. It reports whether any timer fired.
func (c *SimClock) AdvanceToNext() bool {
	c.mu.Lock()
	if len(c.events) == 0 {
		c.mu.Unlock()
		return false
	}
	target := c.events[0].at
	c.mu.Unlock()
	c.advanceTo(target)
	return true
}

// PendingTimers returns the number of timers not yet fired: app timers, and
// the packets and stream chunks in flight.
func (c *SimClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// advanceTo moves the clock to target (if later than now), firing due timers
// in order. Timer callbacks run synchronously in this goroutine so that a
// chain of zero-delay work completes before time moves again; callbacks that
// need to block must spawn their own goroutines.
//
// Every fired callback that may have woken a goroutine — any app timer, and
// any delivery whose receiver returned true — bumps c.wakes as soon as it
// returns. A shared counter rather than a result keeps this exact when
// several goroutines advance the same clock at once: the auto-advancer sees
// wakes caused by anyone's advance, not only its own.
func (c *SimClock) advanceTo(target int64) {
	for {
		c.mu.Lock()
		if len(c.events) == 0 || c.events[0].at > target {
			c.now = max(c.now, target)
			c.mu.Unlock()
			return
		}
		e := c.events[0]
		c.now = max(c.now, e.at)
		c.activity.Add(1)
		c.pending--
		q := e.q
		if q == nil {
			c.events.remove(0)
			now := c.now
			c.mu.Unlock()
			switch {
			case e.fn != nil:
				e.fn()
			case e.done != nil:
				close(e.done)
			default:
				e.ch <- c.epoch.Add(time.Duration(now))
			}
			c.wakes.Add(1)
			continue
		}
		buf := q.ring[q.head].buf
		q.ring[q.head] = entry{}
		q.head = (q.head + 1) & (len(q.ring) - 1)
		if q.n--; q.n > 0 {
			next := &q.ring[q.head]
			e.at, e.seq = next.at, next.seq
			c.events.fix(0)
		} else {
			c.events.remove(0)
		}
		recv := q.recv
		c.mu.Unlock()
		if recv(buf) {
			c.wakes.Add(1)
		}
	}
}

// AutoAdvance starts a background advancer that jumps the clock to the next
// pending timer whenever the system is quiescent (no timer scheduled, fired,
// or cancelled across a window of scheduler yields). This lets ordinary
// goroutine code — QUIC handshakes, HTTP exchanges — run unmodified against
// virtual time: when everyone is blocked waiting for a (virtual) packet
// delivery or timeout, the advancer moves time forward. It returns a stop
// function.
//
// Most packet processing in this repository runs synchronously inside timer
// callbacks (handler-based delivery), so an advance returns only after the
// whole causal cascade of an instant has completed; the yield window only
// covers application goroutines (HTTP handlers, stream readers) that react
// to that cascade. The advancer therefore waits out a window only after an
// instant that may have woken one: any AfterFunc timer (Sleep, After,
// protocol timeouts), or a delivery whose receiver reported mayWake (see
// Link.Attach). An instant whose deliveries all returned false — a
// router forwarding a packet onto its next link, a host stack taking an ACK
// that gave no blocked writer room — left the set of runnable goroutines as
// the previous window found it, empty, so the advancer moves straight on to
// the next timer.
//
// Skipping the window must not starve the rest of the process: a clock
// that always has a non-waking instant pending (a link that keeps bouncing
// a packet nobody waits for) would otherwise hold the one P for good, and
// every other goroutine, another world's advancer included, would run only
// when the runtime preempts it. So after fairSkips consecutive instants
// that woke nobody the advancer yields once. That only lets other
// goroutines run; none of this clock's is runnable, so no virtual result
// changes.
//
// A window of yields shows that nothing is runnable only on one P, where
// each yield round-robins the whole run queue. With more Ps a woken
// goroutine may still be running on another P when the window closes, and
// virtual time would jump ahead of it (a spurious timeout fires, a page
// load takes seconds). So while any auto-advancer runs, the process runs on
// one P: AutoAdvance sets GOMAXPROCS to 1, and the last stop restores the
// previous value (an advancer that is never stopped keeps the process on one
// P). Virtual results are then the same whatever GOMAXPROCS the process
// started with. The grace parameter bounds how long the advancer sleeps when
// no timers are pending at all.
func (c *SimClock) AutoAdvance(grace time.Duration) (stop func()) {
	if grace <= 0 {
		grace = 200 * time.Microsecond
	}
	// quietYields is the number of consecutive scheduler yields without
	// timer activity required before advancing. Large enough for woken
	// application goroutines to run; small enough to keep advances cheap.
	// Every advance followed by a window pays for all of it, so this
	// constant is a first-order throughput term for every virtual-time
	// benchmark.
	const quietYields = 16
	// fairSkips is the number of consecutive non-waking advances after
	// which the advancer yields once anyway (see above). Bulk has at most
	// about 14 000 non-waking deliveries per op against about 34 000
	// window yields, so these add under 1% of its yields.
	const fairSkips = 64
	pinOneP()
	done := make(chan struct{})
	go func() {
		last := c.activity.Load()
		quiet := 0
		idle := 0
		skips := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := c.activity.Load()
			if cur != last {
				last = cur
				quiet = 0
				idle = 0
				runtime.Gosched()
				continue
			}
			quiet++
			if quiet < quietYields {
				runtime.Gosched()
				continue
			}
			wakes := c.wakes.Load()
			if c.AdvanceToNext() {
				last = c.activity.Load()
				idle = 0
				if c.wakes.Load() != wakes {
					quiet, skips = 0, 0
					continue
				}
				// Otherwise quiet stays at quietYields: nothing became
				// runnable, so unless someone else acts the next
				// iteration advances again without a window, and only
				// the fairness yield lets the rest of the process run.
				if skips++; skips == fairSkips {
					skips = 0
					runtime.Gosched()
				}
				continue
			}
			// Nothing pending: sleep politely, backing off while idle.
			idle++
			d := grace
			if idle > 16 {
				d = 4 * grace
			}
			//lint:allow-wallclock idle backoff of the real-time drain helper
			time.Sleep(d)
			quiet = 0
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			unpinOneP()
		})
	}
}

// oneP holds the process on one P while any auto-advancer runs; see
// AutoAdvance.
var oneP struct {
	mu      sync.Mutex
	holders int // running auto-advancers
	restore int // GOMAXPROCS to set when the last one stops; 0 to leave it
}

func pinOneP() {
	oneP.mu.Lock()
	defer oneP.mu.Unlock()
	if oneP.holders == 0 {
		if prev := runtime.GOMAXPROCS(1); prev > 1 {
			oneP.restore = prev
		}
	}
	oneP.holders++
}

func unpinOneP() {
	oneP.mu.Lock()
	defer oneP.mu.Unlock()
	oneP.holders--
	if oneP.holders == 0 && oneP.restore > 0 {
		runtime.GOMAXPROCS(oneP.restore)
		oneP.restore = 0
	}
}
