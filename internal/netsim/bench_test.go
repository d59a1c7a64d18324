package netsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkLinkBurst is the link-only rung of the cost ladder: an op sends
// one packet onto a link and delivers the oldest one in flight, with
// inflight packets queued on the link throughout, so ns/op and allocs/op
// are the rung's ns/packet and allocs/packet. What a packet costs must not
// grow with the number in flight.
func BenchmarkLinkBurst(b *testing.B) {
	for _, inflight := range []int{64, 4096} {
		b.Run(fmt.Sprintf("inflight%d", inflight), func(b *testing.B) {
			c := NewSimClock(epoch)
			l := NewLink(c, LinkProps{Latency: time.Millisecond, Bandwidth: 1_000_000_000}, 1)
			l.Attach(1, func(p []byte) bool { PutBuf(p); return false })
			pkt := make([]byte, 1200)
			for range inflight {
				l.Send(0, pkt)
			}
			op := func() {
				l.Send(0, pkt)
				c.AdvanceToNext()
			}
			op() // the link's queue grows to hold inflight+1 here
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op()
			}
			b.StopTimer()
			if got := c.PendingTimers(); got != inflight {
				b.Fatalf("%d packets in flight, want %d", got, inflight)
			}
		})
	}
}
