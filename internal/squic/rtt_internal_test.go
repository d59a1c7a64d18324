package squic

import (
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
	"tango/internal/testbed"
)

// discardPconn swallows writes, recording their virtual timestamps — the
// substrate for driving a connection's retransmit machinery against a dead
// peer.
type discardPconn struct {
	clock netsim.Clock
	sends []time.Time
}

func (d *discardPconn) WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error {
	d.sends = append(d.sends, d.clock.Now())
	return nil
}
func (d *discardPconn) ReadFrom() (*snet.Datagram, error) { select {} }
func (d *discardPconn) LocalAddr() addr.UDPAddr           { return addr.UDPAddr{} }
func (d *discardPconn) SetReadDeadline(time.Time) error   { return nil }
func (d *discardPconn) Close() error                      { return nil }

// deadConn builds an established client connection over a dead transport:
// everything sent vanishes, so every ack-eliciting packet rides the PTO
// exponential forever.
func deadConn(t testing.TB, clock netsim.Clock) (*Conn, *discardPconn) {
	t.Helper()
	pconn := &discardPconn{clock: clock}
	cfg := (&Config{Clock: clock}).withDefaults()
	c := newConn(pconn, cfg, true)
	keys, err := deriveKeys([]byte("shared-secret-for-pto-test....."), []byte("transcript"))
	if err != nil {
		t.Fatal(err)
	}
	c.keys = keys
	c.established = true
	return c, pconn
}

// TestPTOBackoffCappedNoOverflow is the regression test for the PTO
// overflow: ptoBackoff used to grow unboundedly and `base << backoff`
// overflowed time.Duration after ~60 consecutive PTO fires on a dead
// connection, re-arming a negative/zero timer and spinning hot. The backoff
// shift is now capped and the timeout clamped at maxPTO: every retransmit
// gap stays positive, the gaps grow monotonically to the clamp, and they
// never exceed it.
func TestPTOBackoffCappedNoOverflow(t *testing.T) {
	clock := testbed.NewClock()
	c, pconn := deadConn(t, clock)

	c.mu.Lock()
	c.srtt, c.rttvar = 100*time.Millisecond, 10*time.Millisecond
	c.rttSamples = 1
	c.queueFrameLocked(frame{kind: ftPing})
	c.packetizeLocked() // sends, arms the first PTO
	c.mu.Unlock()
	if len(pconn.sends) != 1 {
		t.Fatalf("initial send count = %d, want 1", len(pconn.sends))
	}

	// Fire well past the old 63-shift overflow horizon.
	const fires = 80
	for i := 0; i < fires; i++ {
		if !clock.AdvanceToNext() {
			t.Fatalf("PTO schedule went dead after %d fires", i)
		}
	}
	c.mu.Lock()
	backoff, pto := c.ptoBackoff, c.ptoLocked()
	c.mu.Unlock()
	if backoff > maxPTOBackoff {
		t.Fatalf("ptoBackoff = %d, want capped at %d", backoff, maxPTOBackoff)
	}
	if pto <= 0 || pto > maxPTO {
		t.Fatalf("PTO = %v after %d fires, want within (0, %v]", pto, fires, maxPTO)
	}
	// Each fire retransmits exactly once: no hot spin, no silent stall.
	if got := len(pconn.sends); got != 1+fires {
		t.Fatalf("sends = %d after %d PTO fires, want %d", got, fires, 1+fires)
	}
	var prev time.Duration
	for i := 1; i < len(pconn.sends); i++ {
		gap := pconn.sends[i].Sub(pconn.sends[i-1])
		if gap <= 0 {
			t.Fatalf("retransmit gap %d collapsed to %v — PTO overflow spin", i, gap)
		}
		if gap > maxPTO {
			t.Fatalf("retransmit gap %d = %v exceeds the %v clamp", i, gap, maxPTO)
		}
		if gap < prev {
			t.Fatalf("retransmit gap %d = %v shrank below %v — backoff wrapped", i, gap, prev)
		}
		prev = gap
	}
	if prev != maxPTO {
		t.Fatalf("terminal retransmit gap = %v, want clamped at %v", prev, maxPTO)
	}
}

// TestRTTSampleFloorAndObserver: sub-microsecond (and zero) ack RTTs are
// floored at MinRTTSample before entering the EWMA and before reaching the
// observer — a LAN-fast path must never report a 0 round-trip estimate.
// Observer delivery is COALESCED: the inline pending buffer holds the
// burst's oldest samples plus the newest one (the freshest estimate always
// arrives), so a between-flush burst of 65 reaches the observer as 8.
func TestRTTSampleFloorAndObserver(t *testing.T) {
	clock := testbed.NewClock()
	c, _ := deadConn(t, clock)
	var seen []time.Duration
	c.OnRTTSample(func(rtt time.Duration) { seen = append(seen, rtt) })

	c.mu.Lock()
	for i := 0; i < 64; i++ {
		c.sampleRTTLocked(0) // same-instant ack on the virtual clock
	}
	c.sampleRTTLocked(200 * time.Nanosecond)
	c.mu.Unlock()
	c.flushRTTSamples()

	srtt, rttvar, samples := c.RTTStats()
	if samples != 65 {
		t.Fatalf("samples = %d, want 65", samples)
	}
	if srtt < MinRTTSample {
		t.Fatalf("srtt = %v truncated below the %v floor", srtt, MinRTTSample)
	}
	if rttvar < 0 {
		t.Fatalf("rttvar = %v negative", rttvar)
	}
	if len(seen) != len(c.pendingRTT) {
		t.Fatalf("observer saw %d samples, want the burst coalesced to %d", len(seen), len(c.pendingRTT))
	}
	for i, rtt := range seen {
		if rtt < MinRTTSample {
			t.Fatalf("observer sample %d = %v below the floor", i, rtt)
		}
	}
	// A second flush delivers nothing: the buffer was consumed.
	seen = seen[:0]
	c.flushRTTSamples()
	if len(seen) != 0 {
		t.Fatalf("flush of an empty buffer delivered %d samples", len(seen))
	}
}

// TestRTTSampleBatchObserver: the batched observer receives one call per
// flush with every buffered sample, takes precedence over the per-sample
// observer, and bursts past the inline buffer keep the newest sample in
// the final slot (coalesce-on-full must not let the freshest measurement
// vanish).
func TestRTTSampleBatchObserver(t *testing.T) {
	clock := testbed.NewClock()
	c, _ := deadConn(t, clock)
	perSample := 0
	c.OnRTTSample(func(time.Duration) { perSample++ })
	var batches [][]time.Duration
	c.OnRTTSampleBatch(func(rtts []time.Duration) {
		batches = append(batches, append([]time.Duration(nil), rtts...))
	})

	c.mu.Lock()
	c.sampleRTTLocked(3 * time.Millisecond)
	c.sampleRTTLocked(5 * time.Millisecond)
	c.mu.Unlock()
	c.flushRTTSamples()
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("batches = %v, want one batch of 2", batches)
	}
	if batches[0][0] != 3*time.Millisecond || batches[0][1] != 5*time.Millisecond {
		t.Fatalf("batch = %v, want samples in order", batches[0])
	}
	if perSample != 0 {
		t.Fatalf("per-sample observer ran %d times despite batch observer", perSample)
	}

	// Overflow: buffer capacity + 3 samples coalesce into capacity slots,
	// the newest surviving in the last slot.
	cap := len(c.pendingRTT)
	c.mu.Lock()
	for i := 0; i < cap+3; i++ {
		c.sampleRTTLocked(time.Duration(i+1) * time.Millisecond)
	}
	c.mu.Unlock()
	c.flushRTTSamples()
	if len(batches) != 2 || len(batches[1]) != cap {
		t.Fatalf("overflow flush delivered %d samples, want %d", len(batches[len(batches)-1]), cap)
	}
	if got := batches[1][cap-1]; got != time.Duration(cap+3)*time.Millisecond {
		t.Fatalf("newest sample after coalesce = %v, want %v", got, time.Duration(cap+3)*time.Millisecond)
	}
}
