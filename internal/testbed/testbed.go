// Package testbed builds the simulated SCION world that every test,
// example and experiment runs on. It is a ladder of rungs, each usable on
// its own:
//
//   - A clock: NewClock returns a virtual clock at Start that moves only
//     when its owner steps it, for tests that replay an instant by hand.
//     Advance starts the one auto-advancer on it, and AutoClock does both
//     and stops the advancer on the test's Cleanup, for code that blocks on
//     virtual time from goroutines (handshakes, HTTP exchanges, timers).
//   - A world: NewWorld beacons the default topology, after an optional
//     customize hook has changed it, and builds its data plane on a given
//     clock, with links seeded by seed. New does the same for a test. A
//     world holds the credentials, the registry of beaconed segments, a
//     path combiner over it, the border routers and links, and one snet
//     dispatcher per AS, so every stack in an AS shares the router's one
//     delivery handler.
//   - A host: World.Stack returns the socket table of one host.
//
// Every world has the same constants, so no two tests disagree about
// them. Beaconing runs at Epoch, and control-plane credentials are valid
// for 30 days from it. Beaconed segments expire 24 hours after Epoch.
// Every clock starts at Start, one hour after Epoch, so a path queried at
// Start is well inside its validity. The auto-advancer's grace is 200 µs.
// It sets only how long the advancer sleeps in wall-clock time while no
// timer is pending, never a virtual time.
//
// Nothing above snet lives here (PAN hosts, squic trust pools, HTTP, the
// legacy IP network, DNS), so the tests of every package above snet,
// in-package tests included, can build their world with testbed.
package testbed

import (
	"net/netip"
	"time"

	"tango/internal/addr"
	"tango/internal/beacon"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/pathdb"
	"tango/internal/snet"
	"tango/internal/topology"
)

var (
	// Epoch is when every world is beaconed and its credentials start.
	Epoch = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	// Start is where every clock starts.
	Start = Epoch.Add(time.Hour)
)

const (
	validity      = 30 * 24 * time.Hour
	segmentExpiry = 24 * time.Hour
	grace         = 200 * time.Microsecond
)

// T is the part of testing.TB the test rungs use. testbed does not import
// testing, so the commands that build their world through it do not link
// the test framework.
type T interface {
	Helper()
	Cleanup(func())
	Fatal(args ...any)
}

// NewClock returns a virtual clock at Start that moves only when stepped.
func NewClock() *netsim.SimClock { return netsim.NewSimClock(Start) }

// Advance starts the auto-advancer on clock and returns its stop function.
func Advance(clock *netsim.SimClock) (stop func()) { return clock.AutoAdvance(grace) }

// AutoClock returns a clock at Start whose advancer runs until t's Cleanup.
func AutoClock(t T) *netsim.SimClock {
	clock := NewClock()
	t.Cleanup(Advance(clock))
	return clock
}

// World is a beaconed SCION world: control plane, data plane and the
// per-AS delivery fabric, on one virtual clock.
type World struct {
	Topo     *topology.Topology
	Infra    *beacon.Infra
	Registry *pathdb.Registry
	Combiner *pathdb.Combiner
	Clock    *netsim.SimClock
	DW       *dataplane.World

	dispatchers map[addr.IA]*snet.Dispatcher
}

// NewWorld beacons the default topology, changed by customize if it is not
// nil, at Epoch and builds its routers and links on clock, seeding the
// links' loss from seed.
func NewWorld(clock *netsim.SimClock, customize func(*topology.Topology), seed int64) (*World, error) {
	topo := topology.Default()
	if customize != nil {
		customize(topo)
	}
	infra, err := beacon.NewInfra(topo, Epoch, Epoch.Add(validity))
	if err != nil {
		return nil, err
	}
	reg := pathdb.NewRegistry(infra.Store)
	if err := beacon.NewService(topo, infra, reg, segmentExpiry).Run(Epoch); err != nil {
		return nil, err
	}
	dw, err := dataplane.NewWorld(topo, infra.ForwardingKeys, clock, seed)
	if err != nil {
		return nil, err
	}
	w := &World{
		Topo:        topo,
		Infra:       infra,
		Registry:    reg,
		Combiner:    pathdb.NewCombiner(reg),
		Clock:       clock,
		DW:          dw,
		dispatchers: make(map[addr.IA]*snet.Dispatcher),
	}
	for _, as := range topo.ASes() {
		w.dispatchers[as.IA] = snet.NewDispatcher(dw.Router(as.IA), clock)
	}
	return w, nil
}

// New is NewWorld for a test: it fails t on error.
func New(t T, clock *netsim.SimClock, customize func(*topology.Topology), seed int64) *World {
	t.Helper()
	w, err := NewWorld(clock, customize, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Stack returns (creating if needed) the stack of host ip in AS ia.
func (w *World) Stack(ia addr.IA, ip string) *snet.Stack {
	return w.dispatchers[ia].Host(netip.MustParseAddr(ip))
}
