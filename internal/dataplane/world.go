package dataplane

import (
	"fmt"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/topology"
)

// World instantiates the data plane of a whole topology: one router per AS
// and one simulated link per topology link, all on a shared clock.
type World struct {
	Topo       *topology.Topology
	Clock      *netsim.SimClock
	routers    map[addr.IA]*Router
	links      []*netsim.Link
	linkByPair map[[2]addr.IA]*netsim.Link
}

// NewWorld builds routers and links. Forwarding keys come from keys (one per
// AS, as produced by beacon.NewInfra). Loss configured in the topology's
// link props is applied; seeds derive deterministically from baseSeed and
// the link index.
func NewWorld(topo *topology.Topology, keys map[addr.IA][]byte, clock *netsim.SimClock, baseSeed int64) (*World, error) {
	w := &World{
		Topo:       topo,
		Clock:      clock,
		routers:    make(map[addr.IA]*Router),
		linkByPair: make(map[[2]addr.IA]*netsim.Link),
	}
	for _, as := range topo.ASes() {
		key := keys[as.IA]
		if key == nil {
			return nil, fmt.Errorf("dataplane: no forwarding key for %s", as.IA)
		}
		w.routers[as.IA] = NewRouter(as.IA, key, clock)
	}
	for i, lid := range topo.Links() {
		intf := topo.AS(lid.A).Interfaces[lid.AID]
		props := netsim.LinkProps{
			Latency:   intf.Props.Latency,
			Bandwidth: intf.Props.Bandwidth,
			LossRate:  intf.Props.Loss,
			MTU:       intf.Props.MTU,
		}
		link := netsim.NewLink(clock, props, baseSeed+int64(i))
		w.links = append(w.links, link)
		w.linkByPair[[2]addr.IA{lid.A, lid.B}] = link
		w.linkByPair[[2]addr.IA{lid.B, lid.A}] = link
		w.routers[lid.A].AttachInterface(lid.AID, link, 0)
		w.routers[lid.B].AttachInterface(lid.BID, link, 1)
	}
	return w, nil
}

// Link returns the simulated link directly connecting a and b, or nil when
// the topology has no such link. Combined with netsim.Link.SetProps it lets
// scenarios degrade or kill a specific inter-AS link mid-run.
func (w *World) Link(a, b addr.IA) *netsim.Link {
	return w.linkByPair[[2]addr.IA{a, b}]
}

// Router returns the border router of ia.
func (w *World) Router(ia addr.IA) *Router { return w.routers[ia] }

// Links returns the instantiated links in topology order.
func (w *World) Links() []*netsim.Link { return w.links }
