package pan_test

import (
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/ppl"
	"tango/internal/squic"
	"tango/internal/testbed"
	"tango/internal/topology"
)

// world is the testbed world on an auto-advanced clock, with one squic
// trust pool.
type world struct {
	*testbed.World
	pool *squic.CertPool
}

func newWorld(t testing.TB) *world {
	return &world{World: testbed.New(t, testbed.AutoClock(t), nil, 1), pool: squic.NewCertPool()}
}

func (w *world) host(ia addr.IA, ip string) *pan.Host {
	return pan.NewHost(w.Stack(ia, ip), w.Combiner, w.pool)
}

// echoServer serves one echo stream per accepted connection, forever.
func echoServer(t testing.TB, h *pan.Host, port uint16, name string, pool *squic.CertPool) *squic.Listener {
	t.Helper()
	id, err := squic.NewIdentity(name)
	if err != nil {
		t.Fatal(err)
	}
	pool.AddIdentity(id)
	lis, err := h.Listen(port, id)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					s, err := conn.AcceptStream()
					if err != nil {
						return
					}
					go io.Copy(s, s)
				}
			}()
		}
	}()
	return lis
}

func TestSelectCompliant(t *testing.T) {
	w := newWorld(t)
	h := w.host(topology.AS111, "10.0.0.1")
	sel, err := h.Select(topology.AS211, pan.NewPolicySelector(policy.LowLatency(), nil), pan.Opportunistic)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Compliant || sel.Path == nil {
		t.Fatalf("selection %+v", sel)
	}
	if sel.Path.Meta.Latency != 91*time.Millisecond {
		t.Fatalf("low-latency selection picked %v", sel.Path.Meta.Latency)
	}
	if sel.Options < 2 || sel.CompliantOptions != sel.Options {
		t.Fatalf("options %d/%d", sel.CompliantOptions, sel.Options)
	}
}

func TestSelectGeofenceStrictFails(t *testing.T) {
	w := newWorld(t)
	h := w.host(topology.AS111, "10.0.0.1")
	fence := policy.NewBlockGeofence(2) // destination ISD is blocked
	s := pan.NewPolicySelector(nil, fence)
	if _, err := h.Select(topology.AS211, s, pan.Strict); err == nil {
		t.Fatal("strict selection through blocked ISD succeeded")
	}
	// Opportunistic: falls back to a non-compliant path, flagged.
	sel, err := h.Select(topology.AS211, s, pan.Opportunistic)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Compliant || sel.Path == nil || sel.CompliantOptions != 0 {
		t.Fatalf("opportunistic fallback selection %+v", sel)
	}
	// Parity with the seed behavior: the fallback is the network's first
	// offered path.
	if paths := h.Paths(topology.AS211); sel.Path.Fingerprint() != paths[0].Fingerprint() {
		t.Fatalf("fallback picked %s, want network-order first %s", sel.Path, paths[0])
	}
}

func TestSelectGeofenceReroutes(t *testing.T) {
	w := newWorld(t)
	h := w.host(topology.AS111, "10.0.0.1")
	// 111->121: fastest is the peering path; blocking nothing picks it.
	sel, _ := h.Select(topology.AS121, pan.NewPolicySelector(policy.LowLatency(), nil), pan.Opportunistic)
	if len(sel.Path.Hops) != 2 {
		t.Fatalf("expected peering path, got %s", sel.Path)
	}
	// A sequence policy forbidding the peering link forces the core route.
	seq, err := ppl.ParseSequence("0 1-ff00:0:110 0*")
	if err != nil {
		t.Fatal(err)
	}
	pol := &ppl.Policy{Sequence: seq, Orderings: []ppl.Ordering{ppl.OrderLatency}}
	sel, err = h.Select(topology.AS121, pan.NewPolicySelector(pol, nil), pan.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Compliant || sel.Path.Meta.Latency != 11*time.Millisecond {
		t.Fatalf("rerouted selection %+v lat=%v", sel, sel.Path.Meta.Latency)
	}
}

func TestSelectNoPath(t *testing.T) {
	w := newWorld(t)
	h := w.host(topology.AS111, "10.0.0.1")
	if _, err := h.Select(addr.MustIA(9, 9), nil, pan.Opportunistic); err == nil {
		t.Fatal("selection to unknown AS succeeded")
	}
}

func TestSelectNilSelectorDefaults(t *testing.T) {
	w := newWorld(t)
	h := w.host(topology.AS111, "10.0.0.1")
	sel, err := h.Select(topology.AS211, nil, pan.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Compliant || sel.CompliantOptions != sel.Options {
		t.Fatalf("nil selector must accept everything: %+v", sel)
	}
}

func TestDialAndServe(t *testing.T) {
	w := newWorld(t)
	server := w.host(topology.AS211, "10.0.0.2")
	lis := echoServer(t, server, 7000, "pan.server", w.pool)
	defer lis.Close()

	client := w.host(topology.AS111, "10.0.0.1")
	remote := addr.UDPAddr{Addr: addr.Addr{IA: topology.AS211, Host: netip.MustParseAddr("10.0.0.2")}, Port: 7000}
	dialer := client.NewDialer(pan.DialOptions{
		Selector: pan.NewPolicySelector(policy.GreenRouting(0), policy.NewBlockGeofence()),
		Mode:     pan.Strict,
	})
	defer dialer.Close()
	conn, sel, err := dialer.Dial(context.Background(), remote, "pan.server")
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Compliant {
		t.Fatal("selection not compliant")
	}
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("green"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "green" {
		t.Fatalf("echo %q", buf)
	}
	// Green routing orders by carbon: the chosen path must be the
	// carbon-minimal one among the offered paths.
	paths := client.Paths(topology.AS211)
	minCarbon := paths[0].Meta.CarbonPerGB
	for _, p := range paths {
		if p.Meta.CarbonPerGB < minCarbon {
			minCarbon = p.Meta.CarbonPerGB
		}
	}
	if sel.Path.Meta.CarbonPerGB != minCarbon {
		t.Fatalf("green routing picked %v g/GB, min is %v", sel.Path.Meta.CarbonPerGB, minCarbon)
	}
}

func TestModeString(t *testing.T) {
	if pan.Opportunistic.String() != "opportunistic" || pan.Strict.String() != "strict" {
		t.Fatal("mode strings wrong")
	}
}
