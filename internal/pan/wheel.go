package pan

import (
	"sync"
	"time"

	"tango/internal/netsim"
)

// wheelSlots is the ring size of a probeWheel. With the default slot width
// (MinInterval/16) the ring spans 32 base intervals — far past the longest
// jittered deadline (1.15·MaxInterval) — so a deadline almost never needs a
// second revolution; deadlines beyond the horizon are handled anyway by the
// absolute-slot check at tick time (the "hierarchy" degenerates to one tier
// plus revolutions, cf. ndn-dpdk's mintmr min-scheduler).
const wheelSlots = 512

// wheelNode is one pending probe deadline: the entry it belongs to is found
// via fp at fire time, never via a captured pointer, so a node that
// outlives its entry (pruned while the slot was pending, Stop→Start cycles)
// can only ever no-op. Nodes are allocated fresh per schedule — the node's
// identity is compared against the entry's current sched field, exactly the
// stale-timer guard the per-entry AfterFunc closures used to provide.
type wheelNode struct {
	fp   string
	abs  int64 // absolute slot number of the deadline
	at   time.Time
	slot int // ring index while attached, -1 when detached
	prev *wheelNode
	next *wheelNode
}

// probeWheel replaces the per-entry clock.AfterFunc timers with one shared
// timing wheel: scheduling, rescheduling, and cancelling a probe deadline
// are O(1) list operations on a coarse slot ring, and the whole monitor
// keeps at most ONE clock timer armed — the boundary of the next occupied
// slot — instead of one per tracked path. At 100k+ tracked paths that is
// the difference between a heap of 100k timers churning on every
// reschedule and a pointer splice.
//
// The wheel tick runs inside a clock timer callback and must not block: it
// detaches the due nodes under the wheel lock, releases it, and only then
// invokes the fire callback per node (which takes the monitor lock and
// hands probes to goroutines). Lock order is therefore monitor → wheel —
// schedule and cancel are called with the monitor lock held — and the
// wheel never calls back into the monitor while holding its own lock.
type probeWheel struct {
	clock netsim.Clock
	slotW time.Duration
	epoch time.Time
	fire  func(*wheelNode)

	mu      sync.Mutex             //lint:lockorder panwheel
	slots   [wheelSlots]*wheelNode // per-slot doubly-linked list heads
	count   int
	cursor  int64 // absolute slot number processed up to (exclusive)
	armed   func() bool
	armedAt time.Time
	armGen  uint64 // arms are generation-stamped so a stale tick no-ops
}

func newProbeWheel(clock netsim.Clock, slotW time.Duration, fire func(*wheelNode)) *probeWheel {
	if slotW <= 0 {
		slotW = time.Millisecond
	}
	return &probeWheel{
		clock: clock,
		slotW: slotW,
		epoch: clock.Now(),
		fire:  fire,
	}
}

// schedule arms n to fire no earlier than d from now, rounded UP to the next
// slot boundary (a deadline is a floor, never a ceiling: quantization must
// not fire a probe early and burn budget ahead of its interval).
func (w *probeWheel) schedule(n *wheelNode, d time.Duration) {
	now := w.clock.Now()
	at := now.Add(d)
	w.mu.Lock()
	abs := int64(at.Sub(w.epoch) / w.slotW)
	if abs < w.cursor {
		abs = w.cursor // already-elapsed slot: fire on the next tick
	}
	n.at = at
	n.abs = abs
	idx := int(abs % wheelSlots)
	n.slot = idx
	n.prev = nil
	n.next = w.slots[idx]
	if n.next != nil {
		n.next.prev = n
	}
	w.slots[idx] = n
	w.count++
	w.armLocked(now)
	w.mu.Unlock()
}

// cancel detaches n, reporting whether it was still pending (false: it
// already fired or was never scheduled). O(1) — the node knows its slot.
func (w *probeWheel) cancel(n *wheelNode) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n.slot < 0 {
		return false
	}
	w.detachLocked(n)
	return true
}

func (w *probeWheel) detachLocked(n *wheelNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		w.slots[n.slot] = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
	n.slot = -1
	w.count--
}

// disarm cancels the pending tick timer, if any — Stop's teardown, after the
// entries' nodes have been cancelled. A tick already in flight sees a bumped
// generation and returns without touching the ring.
func (w *probeWheel) disarm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.armed != nil {
		w.armed()
		w.armed = nil
		w.armedAt = time.Time{}
	}
	w.armGen++
}

// armLocked (re)arms the clock timer for the boundary of the next occupied
// slot. The O(wheelSlots) scan runs once per tick/schedule where it can
// move the armed deadline earlier — not per sample — and keeps exactly one
// timer outstanding.
func (w *probeWheel) armLocked(now time.Time) {
	if w.count == 0 {
		return // nothing pending; a stale armed tick will no-op on the ring
	}
	target := int64(-1)
	for i := int64(0); i < wheelSlots; i++ {
		s := w.cursor + i
		if w.slots[int(s%wheelSlots)] != nil {
			target = s
			break
		}
	}
	if target < 0 {
		return // only future-revolution nodes; the existing arm covers them
	}
	// Fire when the target slot has fully elapsed, so every deadline inside
	// it is due.
	fireAt := w.epoch.Add(time.Duration(target+1) * w.slotW)
	if !fireAt.After(now) {
		fireAt = now.Add(w.slotW) // cursor lagging a quiet period; catch up
	}
	if w.armed != nil && !w.armedAt.IsZero() && !w.armedAt.After(fireAt) {
		return // the pending tick already fires early enough
	}
	if w.armed != nil {
		w.armed()
	}
	w.armGen++
	gen := w.armGen
	w.armedAt = fireAt
	w.armed = w.clock.AfterFunc(fireAt.Sub(now), func() { w.tick(gen) })
}

// tick processes every slot that has fully elapsed, firing the nodes whose
// absolute slot is due and leaving future-revolution nodes in place, then
// re-arms for the next occupied slot. Fire callbacks run after the wheel
// lock is released.
func (w *probeWheel) tick(gen uint64) {
	now := w.clock.Now()
	var due []*wheelNode
	w.mu.Lock()
	if gen != w.armGen {
		w.mu.Unlock()
		return // superseded by a later arm or a disarm
	}
	w.armed, w.armedAt = nil, time.Time{}
	target := int64(now.Sub(w.epoch) / w.slotW)
	if target-w.cursor > wheelSlots {
		// A long quiet gap: one pass over the ring visits every slot, and
		// every node this far back is due (n.abs <= cursor at scan time), so
		// the catch-up never iterates more than wheelSlots slots.
		w.cursor = target - wheelSlots
	}
	for w.cursor < target {
		for n := w.slots[int(w.cursor%wheelSlots)]; n != nil; {
			next := n.next
			if n.abs <= w.cursor {
				w.detachLocked(n)
				due = append(due, n)
			}
			n = next
		}
		w.cursor++
	}
	w.armLocked(now)
	w.mu.Unlock()
	for _, n := range due {
		w.fire(n)
	}
}
