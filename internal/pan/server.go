// Server-side half of the symmetric telemetry plane: a serving host builds
// path health for free from the traffic it already carries, and steers its
// replies over its OWN ranked reverse path instead of blindly mirroring
// whatever path each client happened to pick.
package pan

import (
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/squic"
)

// DefaultSteerInterval is how often a served connection's reverse path is
// re-evaluated against the server monitor's ranking (per connection, and
// only when samples actually arrive — an idle connection is never touched).
const DefaultSteerInterval = 500 * time.Millisecond

// SteerMargin is the hysteresis band of reverse-path steering: the current
// steered path is kept unless a challenger beats its score by more than
// this, so two near-equal reverse paths don't flip-flop on every sample.
const SteerMargin = 5 * time.Millisecond

// SteerStaleFactor sizes the steering watchdog: a steered connection that
// produces NO ack sample within SteerStaleFactor steer intervals of the
// steer reverts to mirroring — samples are what drive re-evaluation, so a
// black-holed steered path would otherwise never heal (no replies arrive,
// no acks come back, no sample ever fires).
const SteerStaleFactor = 4

// SteerBanTTL is how long a reverse path that went stale under steering is
// barred from being steered to again on that connection, so the plane does
// not oscillate between a dead pick and the mirror valve.
const SteerBanTTL = 30 * time.Second

// SteerDecision records how a served destination's reverse path was last
// chosen — the server-side analogue of RaceDecision.
type SteerDecision struct {
	// Mirrored reports the safety valve: the reply rides the reverse of the
	// client's own path because telemetry was empty/stale (or the client's
	// choice ranks best anyway).
	Mirrored bool
	// Fingerprint is the chosen reverse path when steered.
	Fingerprint string
	// Reason is the one-word rationale: "steered", "mirror-best",
	// "multi-conn", "no-fresh-telemetry", "steer-stale".
	Reason string
}

// ServerTelemetry makes the telemetry plane symmetric: attached to a squic
// Listener, it tracks every accepted connection's remote on a Monitor —
// passively (TrackPassive, refcounted per remote endpoint, exactly like
// dialer-side pooling but never scheduling probes at clients) — and fans
// each connection's live ack RTT samples into Monitor.Observe, attributed
// to the reverse path the reply traffic actually rode. A server therefore
// builds per-path and per-link health from serving traffic alone, with zero
// probes.
//
// The same telemetry then steers replies: instead of mirroring the client's
// path choice blind, each connection's reply path is re-ranked periodically
// (observed RTT where fresh, metadata otherwise, plus the monitor's hotspot
// penalty — which imported gossip priors warm on a cold host), with a
// safety valve that falls back to mirroring whenever the destination has no
// fresh telemetry at all. Steering can never wedge a connection: a steered
// path that yields no ack sample within the watchdog window reverts to
// mirroring and is banned for SteerBanTTL on that connection.
//
// The monitor may be this plane's own (left stopped) or shared — with other
// listeners, or with the host's dialer-side plane: client tracking is
// passive-only, so sharing a started, actively-probing monitor is safe.
type ServerTelemetry struct {
	host *Host
	m    *Monitor

	mu        sync.Mutex
	decisions map[addr.IA]SteerDecision
	conns     map[addr.IA]map[*connSteer]bool
	steers    int
	mirrors   int
}

// statScratch pools PathStat slices across steering evaluations.
var statScratch = sync.Pool{New: func() any { return new([]PathStat) }}

// NewServerTelemetry builds the host's server-side telemetry plane over m;
// a nil monitor gets a fresh default one (left stopped — the plane itself
// never probes). Pass a shared monitor to pool observations across
// listeners or with the host's dialer-side plane.
func (h *Host) NewServerTelemetry(m *Monitor) *ServerTelemetry {
	if m == nil {
		m = h.NewMonitor(MonitorOptions{})
	}
	return &ServerTelemetry{host: h, m: m, decisions: make(map[addr.IA]SteerDecision)}
}

// Monitor returns the underlying telemetry store.
func (st *ServerTelemetry) Monitor() *Monitor { return st.m }

// LastDecision reports how the most recent reply-path choice for a
// destination AS was made.
func (st *ServerTelemetry) LastDecision(dst addr.IA) (SteerDecision, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.decisions[dst]
	return d, ok
}

// Counts reports how many steering evaluations chose a monitor-ranked path
// versus fell back to mirroring — the liveness printout feed.
func (st *ServerTelemetry) Counts() (steered, mirrored int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.steers, st.mirrors
}

// Attach wires the listener's accepted connections into the plane. Several
// listeners may attach to one ServerTelemetry.
func (st *ServerTelemetry) Attach(lis *squic.Listener) {
	lis.OnConn(st.handleConn)
}

// handleConn adopts one accepted connection: track its remote passively
// (refcounted — released when the connection dies), steer its first replies
// off any telemetry earlier connections or gossip left behind, and stream
// its ack RTTs into the monitor, re-evaluating the reverse path at most
// once per steer interval.
func (st *ServerTelemetry) handleConn(conn *squic.Conn) {
	remote, ok := conn.RemoteAddr().(addr.UDPAddr)
	if !ok {
		return
	}
	st.m.TrackPassive(remote, "")
	cs := &connSteer{st: st, conn: conn, dst: remote.IA, lastEval: st.host.clock.Now()}
	st.addConn(cs)
	conn.OnClose(func() {
		cs.mu.Lock()
		cs.closed = true
		cs.mu.Unlock()
		st.removeConn(cs)
		st.m.UntrackPassive(remote, "")
	})
	cs.evaluate()
	conn.OnRTTSampleBatch(cs.onSampleBatch)
}

// connSteer is one served connection's steering state.
type connSteer struct {
	st   *ServerTelemetry
	conn *squic.Conn
	dst  addr.IA

	mu         sync.Mutex
	closed     bool
	lastEval   time.Time
	lastSample time.Time
	steeredFP  string // "" while mirroring
	steeredAt  time.Time
	banned     map[string]time.Time // fingerprint → ban expiry
}

// addConn registers a live served connection for the per-destination
// reverse-path usage view.
func (st *ServerTelemetry) addConn(cs *connSteer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.conns == nil {
		st.conns = make(map[addr.IA]map[*connSteer]bool)
	}
	m := st.conns[cs.dst]
	if m == nil {
		m = make(map[*connSteer]bool)
		st.conns[cs.dst] = m
	}
	m[cs] = true
}

func (st *ServerTelemetry) removeConn(cs *connSteer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if m := st.conns[cs.dst]; m != nil {
		delete(m, cs)
		if len(m) == 0 {
			delete(st.conns, cs.dst)
		}
	}
}

// connCount returns the number of live served connections to dst.
func (st *ServerTelemetry) connCount(dst addr.IA) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.conns[dst])
}

// onSampleBatch is the connection's RTT observer: feed the monitor one
// coalesced ack batch (attributed to the path the reply traffic is riding
// NOW — that is the round trip the acks measured) and re-evaluate steering
// when due — at most once per batch, which is exactly the amortization the
// steering evaluation wants on a busy connection.
func (cs *connSteer) onSampleBatch(rtts []time.Duration) {
	cs.st.m.ObserveBatch(cs.conn.Path(), rtts)
	cs.mu.Lock()
	now := cs.st.host.clock.Now()
	cs.lastSample = now
	due := now.Sub(cs.lastEval) >= DefaultSteerInterval
	if due {
		cs.lastEval = now
	}
	cs.mu.Unlock()
	if due {
		cs.evaluate()
	}
}

// evaluate applies one steering decision to the connection.
func (cs *connSteer) evaluate() {
	st := cs.st
	// A client holding several live connections to one destination is
	// spreading load on purpose — a striped download pins one link-disjoint
	// path per connection — so steering ANY of them would collapse that
	// spread onto the telemetry-ranked best reverse path (and fingerprint
	// exclusion cannot protect a path whose owner was itself just steered
	// away). Mirror them all; steering resumes when the set shrinks to one.
	if st.connCount(cs.dst) > 1 {
		cs.setMirror(SteerDecision{Mirrored: true, Reason: "multi-conn"})
		return
	}
	mirror := cs.conn.MirrorPath()
	pick, ok := st.pickReverse(cs.dst, cs.conn.Path(), cs.activeBans())
	switch {
	case !ok:
		cs.setMirror(SteerDecision{Mirrored: true, Reason: "no-fresh-telemetry"})
	case mirror != nil && pick.Fingerprint() == mirror.Fingerprint():
		// The client's own choice ranks best: mirroring is both correct and
		// cheaper (it keeps following the client's future re-selections).
		cs.setMirror(SteerDecision{Mirrored: true, Fingerprint: pick.Fingerprint(), Reason: "mirror-best"})
	default:
		fp := pick.Fingerprint()
		now := st.host.clock.Now()
		cs.conn.SetReplyPath(pick)
		cs.mu.Lock()
		cs.steeredFP, cs.steeredAt = fp, now
		cs.mu.Unlock()
		st.record(cs.dst, SteerDecision{Fingerprint: fp, Reason: "steered"})
		// The watchdog: if this steer never produces an ack sample, the
		// path is black-holed for replies and only mirroring can heal it —
		// samples are the re-evaluation trigger, so without this timer a
		// dead steered path would wedge the connection forever.
		st.host.clock.AfterFunc(SteerStaleFactor*DefaultSteerInterval, func() { cs.checkStale(fp, now) })
	}
}

// setMirror reverts the connection to mirroring and records why.
func (cs *connSteer) setMirror(d SteerDecision) {
	cs.conn.SetReplyPath(nil)
	cs.mu.Lock()
	cs.steeredFP = ""
	cs.mu.Unlock()
	cs.st.record(cs.dst, d)
}

// activeBans returns the fingerprints currently banned on this connection,
// pruning expired entries.
func (cs *connSteer) activeBans() map[string]bool {
	now := cs.st.host.clock.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out map[string]bool
	for fp, until := range cs.banned {
		if now.Before(until) {
			if out == nil {
				out = make(map[string]bool, len(cs.banned))
			}
			out[fp] = true
		} else {
			delete(cs.banned, fp)
		}
	}
	return out
}

// checkStale is the watchdog body: a steer that produced no sample since it
// was installed reverts to mirroring and bans the path on this connection.
func (cs *connSteer) checkStale(fp string, steeredAt time.Time) {
	cs.mu.Lock()
	if cs.closed || cs.steeredFP != fp || cs.steeredAt != steeredAt || cs.lastSample.After(steeredAt) {
		cs.mu.Unlock()
		return
	}
	if cs.banned == nil {
		cs.banned = make(map[string]time.Time)
	}
	cs.banned[fp] = cs.st.host.clock.Now().Add(SteerBanTTL)
	cs.steeredFP = ""
	cs.mu.Unlock()
	cs.conn.SetReplyPath(nil)
	cs.st.record(cs.dst, SteerDecision{Mirrored: true, Reason: "steer-stale"})
}

func (st *ServerTelemetry) record(dst addr.IA, d SteerDecision) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.decisions[dst] = d
	if d.Mirrored {
		st.mirrors++
	} else {
		st.steers++
	}
}

// PickReverse ranks the host's reverse paths toward dst and returns the
// best, with ok=false — the mirror fallback — when the destination has no
// fresh live telemetry at all. See pickReverse.
func (st *ServerTelemetry) PickReverse(dst addr.IA) (*segment.Path, bool) {
	return st.pickReverse(dst, nil, nil)
}

// pickReverse scores every known reverse path toward dst in one batched
// monitor pass (PathStats): the pessimistic observed estimate (RTT + 2·dev)
// where fresh samples exist, the metadata round trip otherwise, plus the
// hotspot penalty (live link stats, or imported gossip priors on links
// never locally measured). Freshly-down and banned paths are excluded. The
// safety valve: unless at least one candidate has fresh sampled telemetry,
// ok is false and the caller mirrors — a ranking built purely on metadata
// would be no better informed than the client's own choice. keep, when
// non-nil, gets a SteerMargin hysteresis bonus so near-ties don't
// oscillate.
func (st *ServerTelemetry) pickReverse(dst addr.IA, keep *segment.Path, banned map[string]bool) (*segment.Path, bool) {
	paths := st.host.Paths(dst)
	if len(paths) == 0 {
		return nil, false
	}
	keepFP := ""
	if keep != nil {
		keepFP = keep.Fingerprint()
	}
	scratch := statScratch.Get().(*[]PathStat)
	stats := st.m.PathStatsAppend((*scratch)[:0], paths)
	defer func() {
		*scratch = stats[:0]
		statScratch.Put(scratch)
	}()
	anyFresh := false
	var best *segment.Path
	var bestScore time.Duration
	for i, p := range paths {
		s := stats[i]
		fp := s.Telemetry.Fingerprint
		if banned[fp] {
			continue
		}
		var score time.Duration
		switch {
		case s.Known && s.Telemetry.Down && s.Telemetry.Fresh:
			continue // freshly down: not a reply candidate
		case s.Known && s.Telemetry.Samples > 0 && s.Telemetry.Fresh:
			// Imported (gossip-warmed) estimates count as fresh too: that is
			// exactly how a cold server steers sensibly from its first reply.
			anyFresh = true
			score = s.Telemetry.RTT + 2*s.Telemetry.Dev
		default:
			// Metadata latency is one-way; scale to RTT units.
			score = 2 * p.Meta.Latency
		}
		score += s.Penalty
		if fp == keepFP && score > SteerMargin {
			score -= SteerMargin
		}
		if best == nil || score < bestScore {
			best, bestScore = p, score
		}
	}
	if best == nil || !anyFresh {
		return nil, false
	}
	return best, true
}
