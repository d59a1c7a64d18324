package pathdb

import (
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// Combiner assembles end-to-end paths from registered segments, implementing
// SCION path combination: up+core+down joins, same-core joins, common-AS
// shortcuts, and peering shortcuts. The combination of different path
// segments is what yields "on the order of dozens to even over a hundred
// potential paths" (paper §2). Answers are cached; see the package comment.
type Combiner struct {
	reg *Registry

	mu    sync.Mutex
	cache map[[2]addr.IA]combined
}

// combined is one cached answer: the registry generation it read and the
// instants [at, until) it holds for (a zero until never expires).
type combined struct {
	gen       uint64
	at, until time.Time
	paths     []*segment.Path
}

// NewCombiner returns a combiner reading from reg.
func NewCombiner(reg *Registry) *Combiner {
	return &Combiner{reg: reg, cache: make(map[[2]addr.IA]combined)}
}

// Paths returns all loop-free end-to-end paths from src to dst valid at the
// given instant, deduplicated and sorted by (latency, hop count,
// fingerprint) for determinism. The result is shared: callers must not
// modify the slice or the paths.
func (c *Combiner) Paths(src, dst addr.IA, at time.Time) []*segment.Path {
	key := [2]addr.IA{src, dst}
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.reg.gen.Load()
	if e, ok := c.cache[key]; ok && e.gen == gen && !at.Before(e.at) && (e.until.IsZero() || at.Before(e.until)) {
		return e.paths
	}
	e := combined{gen: gen, at: at}
	e.paths = c.paths(src, dst, at, &e.until)
	c.cache[key] = e
	return e.paths
}

// paths combines the answer for Paths, lowering *until to the expiry of
// every segment it reads and every path it returns.
func (c *Combiner) paths(src, dst addr.IA, at time.Time, until *time.Time) []*segment.Path {
	if src == dst {
		return []*segment.Path{{Src: src, Dst: dst, Meta: segment.Metadata{ASes: []addr.IA{src}}}}
	}

	ups, downs := c.reg.UpSegments(src, at), c.reg.DownSegments(dst, at)
	if (len(ups) == 0 && !c.isCoreEndpoint(src)) || (len(downs) == 0 && !c.isCoreEndpoint(dst)) {
		return nil // a non-core endpoint without segments is unreachable
	}
	upChoices, downChoices := orCore(ups, until), orCore(downs, until)
	var candidates [][]protoHop
	for _, up := range upChoices {
		for _, down := range downChoices {
			candidates = append(candidates, c.combine(src, dst, up, down, at, until)...)
		}
	}

	seen := make(map[string]int) // fingerprint -> index in out
	var out []*segment.Path
	for _, hops := range candidates {
		p := assemble(hops, at)
		if p == nil || p.Src != src || p.Dst != dst {
			continue
		}
		earliest(until, p.Meta.Expiry)
		fp := p.Fingerprint()
		if i, dup := seen[fp]; dup {
			// Two beaconing rounds yield one hop sequence twice, in
			// map order; keeping the later expiry makes the answer
			// independent of that order.
			if p.Meta.Expiry.After(out[i].Meta.Expiry) {
				out[i] = p
			}
			continue
		}
		seen[fp] = len(out)
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b *segment.Path) int {
		return cmp.Or(cmp.Compare(a.Meta.Latency, b.Meta.Latency), cmp.Compare(len(a.Hops), len(b.Hops)),
			strings.Compare(a.Fingerprint(), b.Fingerprint()))
	})
	return slices.Clip(out) // a caller's append must not write the shared array
}

// orCore lowers *until to the segments' expiries and returns them, or,
// when there are none, one nil segment: "the endpoint is a core AS".
func orCore(segs []*segment.Segment, until *time.Time) []*segment.Segment {
	for _, seg := range segs {
		earliest(until, seg.Expiry())
	}
	if len(segs) == 0 {
		return []*segment.Segment{nil}
	}
	return segs
}

// earliest lowers *until to t; a zero *until is unbounded.
func earliest(until *time.Time, t time.Time) {
	if until.IsZero() || t.Before(*until) {
		*until = t
	}
}

// isCoreEndpoint guesses whether ia is core by looking for core segments
// touching it. Core ASes originate or terminate core segments.
func (c *Combiner) isCoreEndpoint(ia addr.IA) bool {
	c.reg.mu.RLock()
	defer c.reg.mu.RUnlock()
	for _, m := range c.reg.core {
		for _, seg := range m {
			if seg.FirstIA() == ia || seg.LastIA() == ia {
				return true
			}
		}
	}
	return false
}

// combine yields all hop sequences for one (up, down) segment pair,
// including core-joined, same-core, shortcut, and peering variants.
func (c *Combiner) combine(src, dst addr.IA, up, down *segment.Segment, at time.Time, until *time.Time) [][]protoHop {
	var out [][]protoHop

	srcCore := src
	if up != nil {
		srcCore = up.FirstIA()
	}
	dstCore := dst
	if down != nil {
		dstCore = down.FirstIA()
	}

	var upLeg, downLeg []protoHop
	if up != nil {
		upLeg = legAgainstUntil(up, 0)
	}
	if down != nil {
		downLeg = legWith(down, 0)
	}

	if srcCore == dstCore {
		if hops, ok := stitch(upLeg, downLeg); ok {
			out = append(out, hops)
		}
	} else {
		for _, cs := range c.reg.CoreSegments(srcCore, dstCore, at) {
			earliest(until, cs.Seg.Expiry())
			var coreLeg []protoHop
			if cs.AgainstConstruction {
				coreLeg = legAgainstUntil(cs.Seg, 0)
			} else {
				coreLeg = legWith(cs.Seg, 0)
			}
			if hops, ok := stitch(upLeg, coreLeg, downLeg); ok {
				out = append(out, hops)
			}
		}
	}

	if up != nil && down != nil {
		out = append(out, shortcuts(up, down)...)
		out = append(out, peerings(up, down)...)
	}
	return out
}

// shortcuts finds common non-core ASes of the two segments and cuts the path
// there.
func shortcuts(up, down *segment.Segment) [][]protoHop {
	var out [][]protoHop
	for i := 1; i < len(up.Entries); i++ {
		for j := 1; j < len(down.Entries); j++ {
			if up.Entries[i].Local != down.Entries[j].Local {
				continue
			}
			upLeg := legAgainstUntil(up, i)
			downLeg := legWith(down, j)
			if hops, ok := stitch(upLeg, downLeg); ok {
				out = append(out, hops)
			}
		}
	}
	return out
}

// peerings finds peering links advertised on both segments and joins through
// them.
func peerings(up, down *segment.Segment) [][]protoHop {
	var out [][]protoHop
	for i := 1; i < len(up.Entries); i++ {
		u := &up.Entries[i]
		for j := 1; j < len(down.Entries); j++ {
			d := &down.Entries[j]
			for _, p := range u.Peers {
				if p.Peer != d.Local {
					continue
				}
				for _, q := range d.Peers {
					if q.Peer != u.Local {
						continue
					}
					// The two advertisements must describe the same physical
					// link: each side's local interface is the other side's
					// remote interface.
					if q.PeerInterface != p.HopField.ConsIngress || p.PeerInterface != q.HopField.ConsIngress {
						continue
					}
					hops := peeringHops(up, i, p, down, j, q)
					if hops != nil {
						out = append(out, hops)
					}
				}
			}
		}
	}
	return out
}

// peeringHops builds src..u_i -(peer link)- d_j..dst.
func peeringHops(up *segment.Segment, i int, p segment.PeerEntry, down *segment.Segment, j int, q segment.PeerEntry) []protoHop {
	// Travel up from the leaf to u_i, but exit u_i through the peering
	// interface, authorized by the peer hop field.
	upLeg := legAgainstUntil(up, i)
	if len(upLeg) == 0 {
		return nil
	}
	joint := &upLeg[len(upLeg)-1]
	joint.out = p.HopField.ConsIngress
	joint.auth = []segment.AuthField{{HopField: p.HopField, SegInfo: up.Info}}

	// Enter d_j through its peering interface and continue down.
	downLeg := legWith(down, j)
	if len(downLeg) == 0 {
		return nil
	}
	downLeg[0].in = q.HopField.ConsIngress
	downLeg[0].auth = []segment.AuthField{{HopField: q.HopField, SegInfo: down.Info}}
	// The link preceding d_j in travel direction is the peering link.
	downLeg[0].linkLat = p.Latency
	downLeg[0].linkMTU = p.MTU
	downLeg[0].linkBW = 0

	return append(upLeg, downLeg...)
}

// protoHop is a hop under construction, in travel order. linkLat/BW/MTU
// describe the inter-AS link *entered* to reach this hop (zero values at the
// first hop).
type protoHop struct {
	ia      addr.IA
	in, out addr.IfID
	auth    []segment.AuthField

	linkLat time.Duration
	linkBW  int64
	linkMTU int
	static  segment.StaticInfo
}

// legWith converts entries[start:] traveled WITH construction direction
// (down segments, forward core segments).
func legWith(seg *segment.Segment, start int) []protoHop {
	out := make([]protoHop, 0, len(seg.Entries)-start)
	for k := start; k < len(seg.Entries); k++ {
		e := &seg.Entries[k]
		h := protoHop{
			ia:     e.Local,
			in:     e.HopField.ConsIngress,
			out:    e.HopField.ConsEgress,
			auth:   []segment.AuthField{{HopField: e.HopField, SegInfo: seg.Info}},
			static: e.Static,
		}
		if k > start {
			h.linkLat = e.Static.IngressLatency
			h.linkBW = e.Static.IngressBandwidth
			h.linkMTU = e.Static.IngressMTU
		}
		out = append(out, h)
	}
	if start == 0 && len(out) > 0 {
		out[0].in = 0
	}
	return out
}

// legAgainstUntil converts a segment traveled AGAINST construction direction
// (up segments, reversed core segments): leaf first, travelling up to (and
// including) entry
// index stop.
func legAgainstUntil(seg *segment.Segment, stop int) []protoHop {
	n := len(seg.Entries)
	out := make([]protoHop, 0, n-stop)
	for k := n - 1; k >= stop; k-- {
		e := &seg.Entries[k]
		h := protoHop{
			ia:     e.Local,
			in:     e.HopField.ConsEgress,
			out:    e.HopField.ConsIngress,
			auth:   []segment.AuthField{{HopField: e.HopField, SegInfo: seg.Info}},
			static: e.Static,
		}
		// In travel direction, the link entered to reach entry k is the
		// construction-ingress link of entry k+1.
		if k < n-1 {
			next := &seg.Entries[k+1]
			h.linkLat = next.Static.IngressLatency
			h.linkBW = next.Static.IngressBandwidth
			h.linkMTU = next.Static.IngressMTU
		}
		out = append(out, h)
	}
	return out
}

// stitch joins legs whose boundary ASes coincide, merging the joint hop
// (ingress from the earlier leg, egress from the later, authorizations
// unioned).
func stitch(legs ...[]protoHop) ([]protoHop, bool) {
	var out []protoHop
	for _, leg := range legs {
		if len(leg) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, leg...)
			continue
		}
		last := out[len(out)-1]
		first := leg[0]
		if last.ia != first.ia {
			return nil, false
		}
		merged := last
		merged.out = first.out
		merged.auth = append(append([]segment.AuthField(nil), last.auth...), first.auth...)
		out[len(out)-1] = merged
		out = append(out, leg[1:]...)
	}
	return out, len(out) > 0
}

// assemble turns proto hops into a Path with aggregated metadata, rejecting
// AS loops and over-long auth sets.
func assemble(hops []protoHop, at time.Time) *segment.Path {
	if len(hops) == 0 {
		return nil
	}
	seen := make(map[addr.IA]bool, len(hops))
	countries := make(map[string]bool)
	meta := segment.Metadata{ASes: make([]addr.IA, 0, len(hops))}
	var expiry time.Time
	p := &segment.Path{Src: hops[0].ia, Dst: hops[len(hops)-1].ia, Hops: make([]segment.Hop, 0, len(hops))}
	for idx, h := range hops {
		if seen[h.ia] || len(h.auth) > 2 || len(h.auth) == 0 {
			return nil
		}
		seen[h.ia] = true
		hop := segment.Hop{IA: h.ia, Ingress: h.in, Egress: h.out, NumAuth: len(h.auth)}
		copy(hop.Auth[:], h.auth)
		p.Hops = append(p.Hops, hop)

		meta.ASes = append(meta.ASes, h.ia)
		meta.CarbonPerGB += h.static.CarbonIntensity
		if c := h.static.Geo.Country; c != "" {
			countries[c] = true
		}
		if idx > 0 {
			meta.Latency += h.linkLat
			if h.linkBW > 0 && (meta.Bandwidth == 0 || h.linkBW < meta.Bandwidth) {
				meta.Bandwidth = h.linkBW
			}
			if h.linkMTU > 0 && (meta.MTU == 0 || h.linkMTU < meta.MTU) {
				meta.MTU = h.linkMTU
			}
		}
		if m := h.static.InternalMTU; m > 0 && (meta.MTU == 0 || m < meta.MTU) {
			meta.MTU = m
		}
		for _, a := range h.auth {
			if expiry.IsZero() || a.HopField.ExpTime.Before(expiry) {
				expiry = a.HopField.ExpTime
			}
		}
	}
	if !expiry.After(at) {
		return nil
	}
	meta.Countries = slices.Sorted(maps.Keys(countries))
	meta.Expiry = expiry
	p.Meta = meta
	return p
}
