package dataplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
)

// DeliveryHandler receives packets destined for hosts inside an AS. Handlers
// that are done with a packet when they return should call pkt.Release to
// recycle it; handlers that retain the packet (or its Payload/Hops) must not.
//
// It reports woke, which the router passes up as its link receiver's mayWake
// (see netsim.Link.Attach): true whenever handling the packet may have made a
// goroutine runnable, false only when it certainly did not (a host stack
// that consumed an ack nobody waited for, or dropped the packet).
type DeliveryHandler func(pkt *Packet) (woke bool)

// RouterStats counts packet outcomes at one border router.
type RouterStats struct {
	Forwarded    uint64
	Delivered    uint64
	BadMAC       uint64
	Expired      uint64
	WrongIA      uint64
	NoInterface  uint64
	ParseError   uint64
	WrongIngress uint64
	Unauthorized uint64
	NoLocalHosts uint64
	SendRejected uint64
}

// routerCounters is the hot-path representation of RouterStats: independent
// atomics, so per-packet accounting neither takes nor contends the router
// mutex guarding the interface table.
type routerCounters struct {
	forwarded    atomic.Uint64
	delivered    atomic.Uint64
	badMAC       atomic.Uint64
	expired      atomic.Uint64
	wrongIA      atomic.Uint64
	noInterface  atomic.Uint64
	parseError   atomic.Uint64
	wrongIngress atomic.Uint64
	unauthorized atomic.Uint64
	noLocalHosts atomic.Uint64
	sendRejected atomic.Uint64
}

// Router is the (collapsed) border-router plane of one AS: it validates
// hop-field MACs with the AS's forwarding key and forwards packets between
// the AS's inter-domain links, or delivers them to local hosts.
type Router struct {
	ia    addr.IA
	key   []byte
	clock netsim.Clock
	// verifiers pools keyed HMAC states so per-packet MAC checks neither
	// rebuild the SHA-256 key schedule nor allocate digests.
	verifiers sync.Pool
	// macs caches hop validation verdicts keyed by the hop's wire bytes, so
	// steady-state flows skip the HMAC entirely (see macCache).
	macs  macCache
	stats routerCounters

	mu      sync.RWMutex
	ifaces  map[addr.IfID]linkEnd
	deliver DeliveryHandler
}

type linkEnd struct {
	link *netsim.Link
	end  int
}

// NewRouter creates the router for ia using the AS forwarding key.
func NewRouter(ia addr.IA, key []byte, clock netsim.Clock) *Router {
	r := &Router{ia: ia, key: key, clock: clock, ifaces: make(map[addr.IfID]linkEnd)}
	r.verifiers.New = func() any { return segment.NewMACVerifier(key) }
	return r
}

// IA returns the router's AS.
func (r *Router) IA() addr.IA { return r.ia }

// AttachInterface wires a local interface ID to one end of a simulated link
// and registers the router as that end's receiver.
func (r *Router) AttachInterface(id addr.IfID, link *netsim.Link, end int) {
	r.mu.Lock()
	r.ifaces[id] = linkEnd{link: link, end: end}
	r.mu.Unlock()
	link.Attach(end, func(buf []byte) bool { return r.handleFromWire(id, buf) })
}

// SetDeliveryHandler registers the local host stack, replacing any handler
// registered before.
func (r *Router) SetDeliveryHandler(h DeliveryHandler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliver = h
}

// HasDeliveryHandler reports whether a local host stack is registered.
func (r *Router) HasDeliveryHandler() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.deliver != nil
}

// InvalidateMACCache drops every cached hop-validation verdict, forcing full
// MAC re-validation for all flows — the hook for forwarding-key rotation
// (and the cold-cache lever in benchmarks).
func (r *Router) InvalidateMACCache() { r.macs.reset() }

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Forwarded:    r.stats.forwarded.Load(),
		Delivered:    r.stats.delivered.Load(),
		BadMAC:       r.stats.badMAC.Load(),
		Expired:      r.stats.expired.Load(),
		WrongIA:      r.stats.wrongIA.Load(),
		NoInterface:  r.stats.noInterface.Load(),
		ParseError:   r.stats.parseError.Load(),
		WrongIngress: r.stats.wrongIngress.Load(),
		Unauthorized: r.stats.unauthorized.Load(),
		NoLocalHosts: r.stats.noLocalHosts.Load(),
		SendRejected: r.stats.sendRejected.Load(),
	}
}

// handleFromWire processes a packet arriving on interface in. The router
// owns buf (links transfer ownership on delivery) and must release it on
// every drop path.
//
// Transit packets (current hop not the last) take a fast path: the current
// hop's wire bytes are located in place, validated via the MAC verdict cache
// (full HMAC validation only on a cache miss), CurrHop is patched in the
// received buffer, and the very same buffer is handed to the egress link —
// no Packet, hop slice, or payload allocation, no re-Marshal, and no copy
// per forwarded packet. Final-hop delivery and anything currHopSpan cannot
// cheaply locate fall back to the pooled Unmarshal path.
//
// It reports mayWake (see netsim.Link.Attach): what the delivery handler
// returned when the packet reached it, since only the host stack knows
// whether it woke a goroutine. Transit forwarding and every drop touch only
// counters, the MAC cache and link scheduling, so they return false and let
// a virtual clock's auto-advancer skip its quiescence window. Anything added
// to those paths that can wake a goroutine must return true instead.
//
//lint:lease sink
func (r *Router) handleFromWire(in addr.IfID, buf []byte) (mayWake bool) {
	raw, final, ok := currHopSpan(buf)
	if ok && !final {
		var egress addr.IfID
		if r.macs.lookup(macKey(raw, in), raw, in, r.clock.Now()) {
			egress = addr.IfID(binary.BigEndian.Uint16(raw[12:14]))
		} else {
			hop := decodeHopSpan(raw)
			exp, valid := r.validateHop(&hop, in)
			if !valid {
				netsim.PutBuf(buf)
				return false
			}
			r.macs.store(macKey(raw, in), raw, in, exp)
			egress = hop.Egress
		}
		r.mu.RLock()
		le, attached := r.ifaces[egress]
		r.mu.RUnlock()
		if !attached {
			r.stats.noInterface.Add(1)
			netsim.PutBuf(buf)
			return false
		}
		buf[1]++ // CurrHop
		if !le.link.SendOwned(le.end, buf) {
			r.stats.sendRejected.Add(1)
			return false
		}
		r.stats.forwarded.Add(1)
		return false
	}
	pkt, err := unmarshalOwned(buf)
	if err != nil {
		r.stats.parseError.Add(1)
		return false
	}
	if !ok {
		raw = nil // malformed span: full validation only
	}
	return r.processRaw(pkt, in, raw)
}

// localDelay models AS-internal forwarding time for AS-local (empty path)
// packets. Keeping it positive also makes local delivery asynchronous, which
// transports running synchronous handlers rely on to avoid lock recursion.
const localDelay = 20 * time.Microsecond

// InjectLocal accepts a packet originated by a host inside this AS.
// The packet's CurrHop must index this AS's hop (or the path be empty for
// AS-local delivery). It returns an error for immediately-detectable
// problems; forwarding failures beyond the first hop are silent, as in a
// real network. It keeps neither pkt nor its payload after it returns.
func (r *Router) InjectLocal(pkt *Packet) error {
	if len(pkt.Hops) == 0 {
		if pkt.Dst.IA != r.ia {
			return fmt.Errorf("dataplane: empty path but destination %s is not local to %s", pkt.Dst.IA, r.ia)
		}
		// Delivery runs after the call returns, so it gets a copy: the
		// caller may reuse its packet and payload buffer at once.
		cp := &Packet{Src: pkt.Src, Dst: pkt.Dst, CurrHop: pkt.CurrHop, Payload: bytes.Clone(pkt.Payload)}
		r.clock.AfterFunc(localDelay, func() { r.deliverLocal(cp) })
		return nil
	}
	if int(pkt.CurrHop) >= len(pkt.Hops) || pkt.Hops[pkt.CurrHop].IA != r.ia {
		return fmt.Errorf("dataplane: current hop is not %s", r.ia)
	}
	if pkt.Hops[pkt.CurrHop].Ingress != 0 {
		return fmt.Errorf("dataplane: locally injected packet must start with ingress 0")
	}
	r.process(pkt, 0)
	return nil
}

// InjectTemplated is InjectLocal for the common transport case: a non-empty
// path whose header template tmpl (see TemplateFor) matches pkt.Hops. The
// wire image is encoded once, straight into a pooled buffer — template bytes
// copied, only the fixed header, addresses, and payload written fresh —
// instead of re-encoding every hop and auth field per packet, and hop-0
// validation is memoized through the MAC verdict cache keyed by the
// template's bytes. Falls back to InjectLocal whenever the template does not
// apply. It keeps no pointer to pkt, so callers may build it on their stack:
// the fallback hands InjectLocal a copy, which may reach the delivery
// handler.
func (r *Router) InjectTemplated(pkt *Packet, tmpl *PathTemplate) error {
	if tmpl == nil || pkt.CurrHop != 0 || len(pkt.Hops) != tmpl.numHops || len(pkt.Hops) < 2 {
		cp := *pkt
		return r.InjectLocal(&cp)
	}
	hop := &pkt.Hops[0]
	if hop.IA != r.ia {
		return fmt.Errorf("dataplane: current hop is not %s", r.ia)
	}
	if hop.Ingress != 0 {
		return fmt.Errorf("dataplane: locally injected packet must start with ingress 0")
	}
	raw := tmpl.hopSpan(0)
	if r.macs.lookup(macKey(raw, 0), raw, 0, r.clock.Now()) {
		// cached verdict
	} else {
		exp, valid := r.validateHop(hop, 0)
		if !valid {
			return nil // counted; silent like process
		}
		r.macs.store(macKey(raw, 0), raw, 0, exp)
	}
	r.mu.RLock()
	le, attached := r.ifaces[hop.Egress]
	r.mu.RUnlock()
	if !attached {
		r.stats.noInterface.Add(1)
		return nil
	}
	buf := netsim.GetBuf(tmpl.wireLen(len(pkt.Payload)))
	tmpl.encodeInto(buf, pkt.Src, pkt.Dst, pkt.CurrHop+1, pkt.Payload)
	if !le.link.SendOwned(le.end, buf) {
		r.stats.sendRejected.Add(1)
		return nil
	}
	r.stats.forwarded.Add(1)
	return nil
}

// validateHop applies the per-hop checks for a packet that entered via
// interface in (0 = local origin): hop identity, ingress match, MAC and
// expiry on every carried authorization, and interface authorization. End
// hosts cannot forge or extend hop fields. Failures are counted; valid means
// the packet may proceed, and expiry is the earliest auth-field expiry — the
// instant any cached verdict for this hop must die.
func (r *Router) validateHop(hop *segment.Hop, in addr.IfID) (expiry time.Time, valid bool) {
	if hop.IA != r.ia {
		r.stats.wrongIA.Add(1)
		return time.Time{}, false
	}
	if hop.Ingress != in {
		r.stats.wrongIngress.Add(1)
		return time.Time{}, false
	}
	now := r.clock.Now()
	inOK := in == 0
	outOK := hop.Egress == 0
	v := r.verifiers.Get().(*segment.MACVerifier)
	defer r.verifiers.Put(v)
	for _, a := range hop.AuthFields() {
		if !v.Verify(a.SegInfo, a.HopField) {
			r.stats.badMAC.Add(1)
			return time.Time{}, false
		}
		if !a.HopField.ExpTime.After(now) {
			r.stats.expired.Add(1)
			return time.Time{}, false
		}
		if expiry.IsZero() || a.HopField.ExpTime.Before(expiry) {
			expiry = a.HopField.ExpTime
		}
		if a.Authorizes(hop.Ingress) {
			inOK = true
		}
		if a.Authorizes(hop.Egress) {
			outOK = true
		}
	}
	if hop.NumAuth == 0 || !inOK || !outOK {
		r.stats.unauthorized.Add(1)
		return time.Time{}, false
	}
	return expiry, true
}

// verifyHop validates the current hop, consulting the MAC verdict cache when
// the hop's wire bytes are available (raw non-nil).
func (r *Router) verifyHop(hop *segment.Hop, in addr.IfID, raw []byte) bool {
	if raw == nil {
		_, valid := r.validateHop(hop, in)
		return valid
	}
	key := macKey(raw, in)
	if r.macs.lookup(key, raw, in, r.clock.Now()) {
		return true
	}
	exp, valid := r.validateHop(hop, in)
	if !valid {
		return false
	}
	r.macs.store(key, raw, in, exp)
	return true
}

// process validates and forwards/delivers one packet that entered via
// interface in (0 = local origin).
func (r *Router) process(pkt *Packet, in addr.IfID) { r.processRaw(pkt, in, nil) }

// processRaw is process with the current hop's wire bytes (when the packet
// came off the wire and currHopSpan located them) for cached validation. It
// releases pkt on every path that does not hand it to the delivery handler —
// a no-op for caller-constructed packets, the pool return for wire packets —
// and reports whether the delivery handler ran and woke a goroutine.
func (r *Router) processRaw(pkt *Packet, in addr.IfID, raw []byte) (woke bool) {
	if int(pkt.CurrHop) >= len(pkt.Hops) {
		r.stats.parseError.Add(1)
		pkt.Release()
		return false
	}
	hop := &pkt.Hops[pkt.CurrHop]
	if !r.verifyHop(hop, in, raw) {
		pkt.Release()
		return false
	}

	if int(pkt.CurrHop) == len(pkt.Hops)-1 {
		// Final AS: deliver to the local host stack.
		if hop.Egress != 0 || pkt.Dst.IA != r.ia {
			r.stats.wrongIA.Add(1)
			pkt.Release()
			return false
		}
		return r.deliverLocal(pkt)
	}

	r.mu.RLock()
	le, attached := r.ifaces[hop.Egress]
	r.mu.RUnlock()
	if !attached {
		r.stats.noInterface.Add(1)
		pkt.Release()
		return false
	}
	pkt.CurrHop++
	buf, err := pkt.marshalPooled()
	if err != nil {
		r.stats.parseError.Add(1)
		pkt.Release()
		return false
	}
	sent := le.link.SendOwned(le.end, buf)
	pkt.Release()
	if !sent {
		r.stats.sendRejected.Add(1)
		return false
	}
	r.stats.forwarded.Add(1)
	return false
}

// deliverLocal hands pkt to the delivery handler and returns the handler's
// verdict; without a handler it drops pkt and reports no wake.
func (r *Router) deliverLocal(pkt *Packet) (woke bool) {
	r.mu.RLock()
	h := r.deliver
	r.mu.RUnlock()
	if h == nil {
		r.stats.noLocalHosts.Add(1)
		pkt.Release()
		return false
	}
	r.stats.delivered.Add(1)
	return h(pkt)
}
