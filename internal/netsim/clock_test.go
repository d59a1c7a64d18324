package netsim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)

func TestSimClockAdvanceFiresInOrder(t *testing.T) {
	c := NewSimClock(epoch)
	var mu sync.Mutex
	var order []int
	c.AfterFunc(30*time.Millisecond, func() { mu.Lock(); order = append(order, 3); mu.Unlock() })
	c.AfterFunc(10*time.Millisecond, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	c.AfterFunc(20*time.Millisecond, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	c.Advance(25 * time.Millisecond)
	mu.Lock()
	got := append([]int(nil), order...)
	mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if want := epoch.Add(25 * time.Millisecond); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
	c.Advance(10 * time.Millisecond)
	mu.Lock()
	got = append([]int(nil), order...)
	mu.Unlock()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
}

func TestSimClockEqualDeadlinesFIFO(t *testing.T) {
	c := NewSimClock(epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestSimClockCancel(t *testing.T) {
	c := NewSimClock(epoch)
	fired := false
	timer := c.AfterFunc(time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("first Stop should succeed")
	}
	if timer.Stop() {
		t.Fatal("second Stop should report already stopped")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestSimClockAfterFuncAllocs: an AfterFunc timer is its heap node and
// nothing else; the node is the Timer it returns.
func TestSimClockAfterFuncAllocs(t *testing.T) {
	c := NewSimClock(epoch)
	f := func() {}
	if n := testing.AllocsPerRun(100, func() {
		c.AfterFunc(time.Second, f).Stop()
	}); n != 1 {
		t.Fatalf("AfterFunc allocated %v times, want 1 (its event)", n)
	}
}

func TestSimClockZeroDelayFiresOnNextAdvance(t *testing.T) {
	c := NewSimClock(epoch)
	var fired atomic.Bool
	c.AfterFunc(0, func() { fired.Store(true) })
	if fired.Load() {
		t.Fatal("zero-delay timer fired synchronously; must wait for an advance")
	}
	if !c.AdvanceToNext() {
		t.Fatal("no timer pending")
	}
	if !fired.Load() {
		t.Fatal("zero-delay timer did not fire on advance")
	}
	if !c.Now().Equal(epoch) {
		t.Fatal("zero-delay advance moved time")
	}
}

func TestSimClockAdvanceToNext(t *testing.T) {
	c := NewSimClock(epoch)
	if c.AdvanceToNext() {
		t.Fatal("AdvanceToNext with no timers should report false")
	}
	done := false
	c.AfterFunc(42*time.Millisecond, func() { done = true })
	if !c.AdvanceToNext() {
		t.Fatal("AdvanceToNext should fire")
	}
	if !done {
		t.Fatal("timer did not run")
	}
	if want := epoch.Add(42 * time.Millisecond); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestSimClockSleepWithAutoAdvance(t *testing.T) {
	c := NewSimClock(epoch)
	stop := c.AutoAdvance(100 * time.Microsecond)
	defer stop()
	start := c.Now()
	c.Sleep(5 * time.Millisecond)
	if got := c.Since(start); got != 5*time.Millisecond {
		t.Fatalf("virtual sleep advanced %v, want exactly 5ms", got)
	}
}

func TestSimClockConcurrentSleepersMeasureExactDelays(t *testing.T) {
	c := NewSimClock(epoch)
	stop := c.AutoAdvance(100 * time.Microsecond)
	defer stop()
	var wg sync.WaitGroup
	results := make([]time.Duration, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := c.Now()
			c.Sleep(time.Duration(i+1) * time.Millisecond)
			results[i] = c.Since(start)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		want := time.Duration(i+1) * time.Millisecond
		if got < want {
			t.Errorf("sleeper %d measured %v, want >= %v", i, got, want)
		}
	}
}

func TestSimClockAfter(t *testing.T) {
	c := NewSimClock(epoch)
	ch := c.After(7 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before advance")
	default:
	}
	c.Advance(7 * time.Millisecond)
	select {
	case at := <-ch:
		if want := epoch.Add(7 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("After delivered %v, want %v", at, want)
		}
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(time.Second):
		t.Fatal("After never fired")
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = RealClock{}
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) < time.Millisecond {
		t.Fatal("real clock did not advance")
	}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	//lint:allow-wallclock wall-time watchdog against test hangs
	case <-time.After(time.Second):
		t.Fatal("AfterFunc never fired")
	}
}

// TestAutoAdvanceSkipsOnlyNonWakingInstants checks that skipping the
// quiescence window after forwarding-only deliveries is exact. A request
// and its reply each cross a chain of four links whose relays forward and
// report mayWake=false; the chain's last receiver hands the packet to a
// goroutine over a channel and reports true. The server goroutine also
// sleeps on the clock before replying, so an AfterFunc wake is on the
// critical path too. Meanwhile a packet bounces on a separate link every
// 70µs through receivers that also report false, so the advancer always has
// a non-waking timer it could jump to early. If it skipped the window after
// a waking instant, virtual time would run ahead before the woken goroutine
// records Now() and replies, and the timestamps would drift.
func TestAutoAdvanceSkipsOnlyNonWakingInstants(t *testing.T) {
	c := NewSimClock(epoch)
	latencies := []time.Duration{time.Millisecond, 2 * time.Millisecond, 500 * time.Microsecond, 1500 * time.Microsecond}
	var oneWay time.Duration
	chain := make([]*Link, len(latencies))
	for i, lat := range latencies {
		chain[i] = NewLink(c, LinkProps{Latency: lat}, int64(i))
		oneWay += lat
	}
	// Relays between chain[i] and chain[i+1] forward in both directions.
	for i := 0; i+1 < len(chain); i++ {
		left, right := chain[i], chain[i+1]
		left.Attach(1, func(p []byte) bool { right.SendOwned(0, p); return false })
		right.Attach(0, func(p []byte) bool { left.SendOwned(1, p); return false })
	}
	toServer := make(chan []byte, 1)
	toClient := make(chan []byte, 1)
	first, last := chain[0], chain[len(chain)-1]
	last.Attach(1, func(p []byte) bool { toServer <- p; return true })
	first.Attach(0, func(p []byte) bool { toClient <- p; return true })

	var stopBounce atomic.Bool
	bounce := NewLink(c, LinkProps{Latency: 70 * time.Microsecond}, 99)
	for end := 0; end < 2; end++ {
		end := end
		bounce.Attach(1-end, func(p []byte) bool {
			if stopBounce.Load() {
				PutBuf(p)
			} else {
				bounce.SendOwned(1-end, p)
			}
			return false
		})
	}
	bounce.Send(0, []byte{0})

	stop := c.AutoAdvance(100 * time.Microsecond)
	defer stop()
	defer stopBounce.Store(true)

	const (
		rounds = 500
		think  = 250 * time.Microsecond
	)
	period := 2*oneWay + think
	serverAt := make([]time.Time, rounds)
	go func() {
		for k := 0; k < rounds; k++ {
			p := <-toServer
			serverAt[k] = c.Now()
			c.Sleep(think)
			last.SendOwned(1, p)
		}
	}()
	first.Send(0, []byte("ping"))
	for k := 0; k < rounds; k++ {
		var p []byte
		select {
		case p = <-toClient:
		//lint:allow-wallclock wall-time watchdog against test hangs
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d never completed", k)
		}
		start := epoch.Add(time.Duration(k) * period)
		if got, want := c.Now(), start.Add(period); !got.Equal(want) {
			t.Fatalf("round %d: client woke at +%v, want +%v", k, got.Sub(epoch), want.Sub(epoch))
		}
		if got, want := serverAt[k], start.Add(oneWay); !got.Equal(want) {
			t.Fatalf("round %d: server woke at +%v, want +%v", k, got.Sub(epoch), want.Sub(epoch))
		}
		if k+1 < rounds {
			first.SendOwned(0, p)
		} else {
			PutBuf(p)
		}
	}
}

// TestAutoAdvanceRunsOnOneP checks that the process runs on one P while any
// auto-advancer runs, and that the last stop restores the previous
// GOMAXPROCS.
func TestAutoAdvanceRunsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	a, b := NewSimClock(epoch), NewSimClock(epoch)
	stopA := a.AutoAdvance(0)
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS with one advancer = %d, want 1", got)
	}
	stopB := b.AutoAdvance(0)
	stopA()
	stopA()
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS with one advancer left = %d, want 1", got)
	}
	// The remaining advancer still moves its clock.
	b.Sleep(time.Millisecond)
	stopB()
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Fatalf("GOMAXPROCS after the last stop = %d, want 3", got)
	}
}
