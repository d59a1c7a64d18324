package segment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"tango/internal/addr"
)

// AuthField is one hop-field authorization together with the segment info it
// was minted under; border routers recompute the MAC from these.
type AuthField struct {
	HopField HopField
	SegInfo  Info
}

// Pair reports whether the travel interface id is one of the two
// construction-direction interfaces this field authorizes.
func (a AuthField) Authorizes(id addr.IfID) bool {
	return a.HopField.ConsIngress == id || a.HopField.ConsEgress == id
}

// Hop is one AS traversal of an end-to-end path, in *travel direction*:
// packets enter through Ingress and leave through Egress (0 at the path
// endpoints). Auth carries the construction-direction authorizations the
// AS's border router validates — two at segment joints (cross-over ASes),
// one elsewhere.
type Hop struct {
	IA      addr.IA
	Ingress addr.IfID
	Egress  addr.IfID

	NumAuth int
	Auth    [2]AuthField
}

// AuthFields returns the populated authorization fields.
func (h *Hop) AuthFields() []AuthField { return h.Auth[:h.NumAuth] }

// Metadata aggregates the decorations of a path — what policies (and users)
// select on.
type Metadata struct {
	// Latency is the one-way propagation delay summed over inter-AS links.
	Latency time.Duration
	// Bandwidth is the bottleneck (minimum) link capacity in bits/s.
	Bandwidth int64
	// MTU is the end-to-end minimum MTU in bytes.
	MTU int
	// ASes lists the traversed ASes in travel order (including endpoints).
	ASes []addr.IA
	// Countries is the sorted deduplicated set of traversed countries.
	Countries []string
	// CarbonPerGB sums the carbon intensity (g CO2 / GB) of traversed ASes.
	CarbonPerGB float64
	// Expiry is the earliest hop expiry.
	Expiry time.Time
}

// ISDs returns the deduplicated set of traversed ISDs in travel order.
func (m *Metadata) ISDs() []addr.ISD {
	var out []addr.ISD
	seen := make(map[addr.ISD]bool)
	for _, ia := range m.ASes {
		if !seen[ia.ISD] {
			seen[ia.ISD] = true
			out = append(out, ia.ISD)
		}
	}
	return out
}

// Path is a complete forwarding path between two SCION ASes together with
// its metadata. Paths are immutable once built: those from pathdb's
// combiner are shared by every caller, with one memoized fingerprint and
// wire template each.
type Path struct {
	Src, Dst addr.IA
	Hops     []Hop
	Meta     Metadata

	// fp memoizes Fingerprint (paths are immutable once built): passive
	// telemetry looks paths up by fingerprint on the per-ack hot path,
	// where re-hashing every call would dominate the ingest cost. Literal
	// construction leaves it empty; the first call fills it. A concurrent
	// first call may compute twice — both arrive at the same value.
	fp atomic.Pointer[string]

	// wireTmpl memoizes the data plane's pre-marshaled header template for
	// this path, same immutability argument as fp. It is stored as an opaque
	// any because the concrete type lives in internal/dataplane, which
	// imports this package; see dataplane.TemplateFor.
	wireTmpl atomic.Value
}

// WireTemplate returns the memoized wire-header template, or nil if none has
// been cached yet. The caller (internal/dataplane) owns the concrete type.
func (p *Path) WireTemplate() any { return p.wireTmpl.Load() }

// SetWireTemplate caches the wire-header template. Concurrent first callers
// may both compute one; either value is equivalent, last store wins.
func (p *Path) SetWireTemplate(v any) { p.wireTmpl.Store(v) }

// Fingerprint returns a short stable identifier of the AS/interface
// sequence, used for dedup and for pinning paths in statistics.
func (p *Path) Fingerprint() string {
	if s := p.fp.Load(); s != nil {
		return *s
	}
	// The hashed bytes are each hop's IA in text form and its two interface
	// IDs, formatted into one buffer (on the stack for paths of up to about
	// ten hops) and hashed at once.
	var stack [256]byte
	b := stack[:0]
	for _, hop := range p.Hops {
		b = hop.IA.AppendTo(b)
		b = binary.BigEndian.AppendUint16(b, uint16(hop.Ingress))
		b = binary.BigEndian.AppendUint16(b, uint16(hop.Egress))
	}
	sum := sha256.Sum256(b)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	s := string(hx[:])
	p.fp.Store(&s)
	return s
}

// Reversed returns the reply path: hops in reverse travel order with
// ingress/egress swapped. Hop-field authorizations are direction-agnostic,
// so the reversed path forwards without new control-plane state.
func (p *Path) Reversed() *Path {
	out := &Path{Src: p.Dst, Dst: p.Src, Meta: p.Meta}
	out.Hops = make([]Hop, len(p.Hops))
	for i, h := range p.Hops {
		h.Ingress, h.Egress = h.Egress, h.Ingress
		out.Hops[len(p.Hops)-1-i] = h
	}
	ases := make([]addr.IA, len(p.Meta.ASes))
	for i, ia := range p.Meta.ASes {
		ases[len(ases)-1-i] = ia
	}
	out.Meta.ASes = ases
	return out
}

// String renders the path in the conventional "IA if>if IA" notation.
func (p *Path) String() string {
	if len(p.Hops) == 0 {
		return p.Src.String() + " (empty path)"
	}
	var b strings.Builder
	for i, h := range p.Hops {
		if i > 0 {
			fmt.Fprintf(&b, " %d>%d ", p.Hops[i-1].Egress, h.Ingress)
		}
		b.WriteString(h.IA.String())
	}
	return b.String()
}

// HopCount returns the number of traversed ASes.
func (p *Path) HopCount() int { return len(p.Hops) }
