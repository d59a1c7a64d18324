package pan_test

import (
	"reflect"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/segment"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// TestSinksCalledInSubscriptionOrder: every batch reaches the subscribed
// sinks in the order they subscribed; unsubscribing one in the middle keeps
// the others in order, a second call of the same unsubscribe is harmless,
// and a later subscriber comes last.
func TestSinksCalledInSubscriptionOrder(t *testing.T) {
	paths := []*segment.Path{fakePath(topology.AS211, 0)}
	m := pan.NewMonitor(testbed.NewClock(), func(addr.IA) []*segment.Path { return paths }, pan.MonitorOptions{
		Probe: (&probeScript{}).fn,
	})
	m.Track(probeTarget(0), "order.server")
	var calls []string
	subscribe := func(name string) func() {
		return m.SubscribeBatch(pan.BatchSinkFunc(func([]pan.SampleReport) { calls = append(calls, name) }))
	}
	expect := func(step string, want ...string) {
		t.Helper()
		calls = nil
		m.Observe(paths[0], 30*time.Millisecond)
		if !reflect.DeepEqual(calls, want) {
			t.Fatalf("%s: fan-out order %v, want %v", step, calls, want)
		}
	}
	subscribe("a")
	unsubB := subscribe("b")
	subscribe("c")
	expect("three subscribed", "a", "b", "c")
	unsubD := subscribe("d")
	expect("four subscribed", "a", "b", "c", "d")
	unsubB()
	expect("middle unsubscribed", "a", "c", "d")
	unsubB()
	expect("middle unsubscribed twice", "a", "c", "d")
	subscribe("e")
	unsubD()
	expect("late subscriber", "a", "c", "e")
}
