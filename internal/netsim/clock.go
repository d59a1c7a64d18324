// Package netsim provides the simulated network substrate every other layer
// of this repository runs on: a pluggable clock (real or virtual), lossy
// latency/bandwidth-shaped datagram links, and latency-shaped in-memory
// stream connections that model the legacy BGP/IP path.
//
// netsim is deliberately SCION-agnostic: the SCION data plane
// (internal/dataplane) builds border routers on top of netsim links, and the
// legacy IP fallback path (internal/proxy) dials netsim stream connections,
// so both worlds share one simulated substrate and one clock, as in the
// paper's testbeds (Figures 2 and 4).
package netsim

import (
	"container/heap"
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
	// AfterFunc schedules f to run after d and returns a cancel function
	// that reports whether the call was stopped before f ran.
	AfterFunc(d time.Duration, f func()) (cancel func() bool)
	// Since returns the clock time elapsed since t.
	Since(t time.Time) time.Duration
}

// DeliveryScheduler is an optional Clock capability used by the packet
// plane: schedule a one-shot packet delivery with no cancel handle. Links
// deliver millions of packets and never cancel them, so the cancel closure
// AfterFunc must construct is pure garbage on that path; implementations can
// also recycle their timer records since no reference escapes. Both clocks
// in this package implement it; custom Clocks fall back to AfterFunc.
//
// recv reports mayWake: false promises that the call made no goroutine
// runnable (it only counted, cached, or scheduled further deliveries), so a
// SimClock's auto-advancer may move on to the next timer without waiting for
// reactions. Return true whenever the call might have woken anyone — sent on
// a channel, released a lock or condition a goroutine waits on, or ran code
// that could. RealClock ignores the result.
type DeliveryScheduler interface {
	//lint:lease sink
	ScheduleDelivery(d time.Duration, recv func([]byte) (mayWake bool), buf []byte)
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
func (RealClock) AfterFunc(d time.Duration, f func()) func() bool {
	t := time.AfterFunc(d, f) //lint:allow-wallclock RealClock is the wall-clock boundary
	return t.Stop
}

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) } //lint:allow-wallclock RealClock is the wall-clock boundary

// ScheduleDelivery implements DeliveryScheduler.
//
//lint:lease sink
func (RealClock) ScheduleDelivery(d time.Duration, recv func([]byte) bool, buf []byte) {
	time.AfterFunc(d, func() { recv(buf) }) //lint:allow-wallclock RealClock is the wall-clock boundary
}

// simTimer is one pending virtual-clock timer. Delivery timers (see
// ScheduleDelivery) carry recv+buf directly instead of a closure and are
// recycled through simTimerPool after firing; only timers with no
// outstanding cancel handle may be pooled.
type simTimer struct {
	deadline time.Time
	seq      uint64 // tie-break so equal deadlines fire in schedule order
	fn       func()
	recv     func([]byte) bool
	buf      []byte
	pooled   bool // no cancel handle exists; recycle after firing
	index    int  // heap index, -1 once removed
}

var simTimerPool = sync.Pool{New: func() any { return new(simTimer) }}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// SimClock is a virtual clock. Time only moves when Advance, AdvanceToNext,
// or the auto-advancer (see AutoAdvance) moves it, so durations measured with
// a SimClock are exactly the sums of scheduled delays on the critical path —
// compute time contributes zero. This is what makes the page-load-time
// experiments deterministic and fast.
//
// The zero value is not usable; construct with NewSimClock.
type SimClock struct {
	mu       sync.Mutex
	now      time.Time
	timers   timerHeap
	seq      uint64
	activity atomic.Uint64 // bumped on every schedule/fire, used by AutoAdvance
	wakes    atomic.Uint64 // bumped by every fired timer that may have woken a goroutine
}

// NewSimClock returns a SimClock starting at the given epoch.
func NewSimClock(epoch time.Time) *SimClock {
	return &SimClock{now: epoch}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock. It blocks until virtual time has advanced past
// now+d, which requires some other party (another goroutine, or the
// auto-advancer) to move the clock.
func (c *SimClock) Sleep(d time.Duration) {
	done := make(chan struct{})
	c.AfterFunc(d, func() { close(done) })
	<-done
}

// After implements Clock.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.AfterFunc(d, func() { ch <- c.Now() })
	return ch
}

// AfterFunc implements Clock. Timers scheduled with non-positive delay fire
// at the current virtual instant on the next advance — never synchronously,
// so callers may schedule while holding locks their callbacks take.
func (c *SimClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	c.activity.Add(1)
	t := &simTimer{deadline: c.now.Add(d), seq: c.seq, fn: f}
	c.seq++
	heap.Push(&c.timers, t)
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.activity.Add(1)
		if t.index < 0 {
			return false
		}
		heap.Remove(&c.timers, t.index)
		return true
	}
}

// ScheduleDelivery implements DeliveryScheduler: like AfterFunc but with the
// callback's argument stored on the (pooled) timer record, so the packet hot
// path schedules deliveries with zero allocations in steady state.
//
//lint:lease sink
func (c *SimClock) ScheduleDelivery(d time.Duration, recv func([]byte) bool, buf []byte) {
	t := simTimerPool.Get().(*simTimer)
	t.fn = nil
	t.recv = recv
	t.buf = buf
	t.pooled = true
	c.mu.Lock()
	c.activity.Add(1)
	t.deadline = c.now.Add(d)
	t.seq = c.seq
	c.seq++
	heap.Push(&c.timers, t)
	c.mu.Unlock()
}

// Since implements Clock.
func (c *SimClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Advance moves virtual time forward by d, firing every timer whose deadline
// falls within the window, in deadline order.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	c.mu.Unlock()
	c.advanceTo(target)
}

// AdvanceToNext jumps virtual time to the earliest pending timer deadline and
// fires every timer due at that instant. It reports whether any timer fired.
func (c *SimClock) AdvanceToNext() bool {
	c.mu.Lock()
	if len(c.timers) == 0 {
		c.mu.Unlock()
		return false
	}
	target := c.timers[0].deadline
	c.mu.Unlock()
	c.advanceTo(target)
	return true
}

// PendingTimers returns the number of timers not yet fired.
func (c *SimClock) PendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// advanceTo moves the clock to target (if later than now), firing due timers
// in order. Timer callbacks run synchronously in this goroutine so that a
// chain of zero-delay work completes before time moves again; callbacks that
// need to block must spawn their own goroutines.
//
// Every fired callback that may have woken a goroutine — any AfterFunc
// callback, and any delivery whose receiver returned true — bumps c.wakes as
// soon as it returns. A shared counter rather than a result keeps this exact
// when several goroutines advance the same clock at once: the auto-advancer
// sees wakes caused by anyone's advance, not only its own.
func (c *SimClock) advanceTo(target time.Time) {
	for {
		c.mu.Lock()
		if target.After(c.now) && (len(c.timers) == 0 || c.timers[0].deadline.After(target)) {
			c.now = target
		}
		if len(c.timers) == 0 || c.timers[0].deadline.After(target) {
			c.mu.Unlock()
			return
		}
		t := heap.Pop(&c.timers).(*simTimer)
		if t.deadline.After(c.now) {
			c.now = t.deadline
		}
		c.activity.Add(1)
		c.mu.Unlock()
		fn, recv, buf := t.fn, t.recv, t.buf
		if t.pooled {
			*t = simTimer{}
			simTimerPool.Put(t)
		}
		if recv == nil {
			fn()
			c.wakes.Add(1)
		} else if recv(buf) {
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
// DeliveryScheduler). An instant whose deliveries all returned false — a
// router forwarding a packet onto its next link — left the set of runnable
// goroutines as the previous window found it, empty, so the advancer moves
// straight on to the next timer.
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
	pinOneP()
	done := make(chan struct{})
	go func() {
		last := c.activity.Load()
		quiet := 0
		idle := 0
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
					quiet = 0
				}
				// Otherwise quiet stays at quietYields: nothing became
				// runnable, so unless someone else acts the next
				// iteration advances again without yielding.
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
