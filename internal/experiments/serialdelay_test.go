package experiments

import (
	"runtime"
	"testing"
	"time"

	"tango/internal/netsim"
)

// TestSerialDelayHoldsNoLockAcrossWait: callers that arrive at one instant
// are served back to back, so each finishes at the prefix sum of the service
// costs, and the stage's lock is free while they sleep. A lock held across
// the virtual wait would make the queue order depend on how the scheduler
// hands the mutex over.
func TestSerialDelayHoldsNoLockAcrossWait(t *testing.T) {
	const (
		waiters = 4
		cost    = 10 * time.Millisecond
	)
	clock := netsim.NewSimClock(Epoch)
	d := NewSerialDelay(clock, cost, 0, 1)
	done := make(chan time.Duration, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			d.Wait()
			done <- clock.Since(Epoch)
		}()
	}
	// within polls cond until it holds, for up to 5 s of wall time.
	within := func(cond func() bool) bool {
		//lint:allow-wallclock wall-time watchdog against test hangs
		deadline := time.Now().Add(5 * time.Second)
		//lint:allow-wallclock wall-time watchdog against test hangs
		for !cond() && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		return cond()
	}
	// Each sleeping waiter holds one pending timer. Another caller may hold
	// the lock for an instant while it takes its ticket; a caller that is
	// asleep must not hold it.
	if !within(func() bool { return clock.PendingTimers() >= 1 }) {
		t.Fatal("no waiter went to sleep")
	}
	if !within(func() bool {
		if !d.mu.TryLock() {
			return false
		}
		d.mu.Unlock()
		return true
	}) {
		t.Fatal("SerialDelay holds its lock while a caller sleeps")
	}
	if !within(func() bool { return clock.PendingTimers() == waiters }) {
		t.Fatalf("%d of %d waiters asleep", clock.PendingTimers(), waiters)
	}
	for i := 1; i <= waiters; i++ {
		clock.AdvanceToNext()
		if got, want := <-done, time.Duration(i)*cost; got != want {
			t.Fatalf("waiter %d finished at %v, want %v", i, got, want)
		}
	}
}
