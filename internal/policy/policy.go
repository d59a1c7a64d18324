// Package policy builds user-facing path policies on top of the PPL:
// ISD-level geofencing (the paper's flagship property, §4.1), and presets
// for the property classes of Table 1 (performance, quality, privacy, ESG,
// economics) that applications and users can pick without writing PPL.
package policy

import (
	"fmt"
	"sort"

	"tango/internal/addr"
	"tango/internal/ppl"
	"tango/internal/segment"
)

// Geofence is the ISD-level allow/block configuration the extension exposes:
// "We provide the user with an interface to block or allow entire ISDs.
// Since ISDs are designed to cover independent regions or networks, we
// anticipate a balanced degree of customization" (paper §4.1).
type Geofence struct {
	// Mode selects the interpretation of the ISD set.
	Mode GeofenceMode
	// ISDs is the blocked (or allowed) set.
	ISDs map[addr.ISD]bool
}

// GeofenceMode selects blocklist or allowlist semantics.
type GeofenceMode int

const (
	// BlockListed rejects paths traversing any listed ISD.
	BlockListed GeofenceMode = iota
	// AllowOnlyListed rejects paths leaving the listed ISDs.
	AllowOnlyListed
)

// NewBlockGeofence builds a blocklist geofence.
func NewBlockGeofence(isds ...addr.ISD) *Geofence {
	g := &Geofence{Mode: BlockListed, ISDs: make(map[addr.ISD]bool)}
	for _, i := range isds {
		g.ISDs[i] = true
	}
	return g
}

// NewAllowGeofence builds an allowlist geofence.
func NewAllowGeofence(isds ...addr.ISD) *Geofence {
	g := &Geofence{Mode: AllowOnlyListed, ISDs: make(map[addr.ISD]bool)}
	for _, i := range isds {
		g.ISDs[i] = true
	}
	return g
}

// Compliant reports whether a path satisfies the geofence.
func (g *Geofence) Compliant(p *segment.Path) bool {
	if g == nil {
		return true
	}
	// A blocklist rejects any listed ISD, an allowlist any unlisted one.
	block := g.Mode == BlockListed
	for _, ia := range p.Meta.ASes {
		if g.ISDs[ia.ISD] == block {
			return false
		}
	}
	return true
}

// Policy compiles the geofence to a PPL policy (ACL over ISD wildcards), the
// foundation for finer-grained geofencing the paper mentions.
func (g *Geofence) Policy() *ppl.Policy {
	acl := &ppl.ACL{}
	isds := make([]addr.ISD, 0, len(g.ISDs))
	for isd := range g.ISDs {
		isds = append(isds, isd)
	}
	sort.Slice(isds, func(i, j int) bool { return isds[i] < isds[j] })
	for _, isd := range isds {
		acl.Entries = append(acl.Entries, ppl.ACLEntry{
			Allow: g.Mode == AllowOnlyListed,
			HP:    ppl.HopPredicate{IA: addr.IA{ISD: isd}},
		})
	}
	acl.Entries = append(acl.Entries, ppl.ACLEntry{Allow: g.Mode == BlockListed})
	name := "geofence-block"
	if g.Mode == AllowOnlyListed {
		name = "geofence-allow"
	}
	return &ppl.Policy{Name: name, ACL: acl}
}

// String summarizes the geofence for UI display.
func (g *Geofence) String() string {
	verb := "block"
	if g.Mode == AllowOnlyListed {
		verb = "allow-only"
	}
	isds := make([]addr.ISD, 0, len(g.ISDs))
	for isd := range g.ISDs {
		isds = append(isds, isd)
	}
	sort.Slice(isds, func(i, j int) bool { return isds[i] < isds[j] })
	return fmt.Sprintf("geofence %s ISDs %v", verb, isds)
}

// Property presets for Table 1's property classes. Each returns a PPL policy
// implementing the selection strategy for that property.

// LowLatency optimizes interactive performance.
func LowLatency() *ppl.Policy {
	return &ppl.Policy{Name: "low-latency", Orderings: []ppl.Ordering{ppl.OrderLatency, ppl.OrderHops}}
}

// HighBandwidth optimizes bulk transfer.
func HighBandwidth() *ppl.Policy {
	return &ppl.Policy{Name: "high-bandwidth", Orderings: []ppl.Ordering{ppl.OrderBandwidth, ppl.OrderLatency}}
}

// FewestHops minimizes exposure and loss probability.
func FewestHops() *ppl.Policy {
	return &ppl.Policy{Name: "fewest-hops", Orderings: []ppl.Ordering{ppl.OrderHops, ppl.OrderLatency}}
}

// LargestMTU prefers paths carrying bigger datagrams.
func LargestMTU() *ppl.Policy {
	return &ppl.Policy{Name: "largest-mtu", Orderings: []ppl.Ordering{ppl.OrderMTU, ppl.OrderLatency}}
}

// GreenRouting implements ESG carbon-footprint reduction.
func GreenRouting(maxCarbonPerGB float64) *ppl.Policy {
	return &ppl.Policy{
		Name:      "green-routing",
		MaxCarbon: maxCarbonPerGB,
		Orderings: []ppl.Ordering{ppl.OrderCarbon, ppl.OrderLatency},
	}
}

// CountryAvoidance rejects paths whose decoration includes any listed
// country — finer-grained geofencing than ISD level, enabled by the
// geographic decoration.
type CountryAvoidance struct {
	Blocked map[string]bool
}

// NewCountryAvoidance blocks the given ISO country codes.
func NewCountryAvoidance(codes ...string) *CountryAvoidance {
	c := &CountryAvoidance{Blocked: make(map[string]bool)}
	for _, code := range codes {
		c.Blocked[code] = true
	}
	return c
}

// Compliant reports whether the path avoids all blocked countries.
func (c *CountryAvoidance) Compliant(p *segment.Path) bool {
	if c == nil {
		return true
	}
	for _, country := range p.Meta.Countries {
		if c.Blocked[country] {
			return false
		}
	}
	return true
}
