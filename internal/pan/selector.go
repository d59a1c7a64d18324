package pan

import (
	"sort"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/policy"
	"tango/internal/ppl"
	"tango/internal/segment"
)

// Candidate is one ranked path choice produced by a Selector. Candidates
// earlier in the ranking are preferred; the Compliant flag records whether
// the path satisfies the selector's notion of the user's policy (feeding the
// UI indicator and strict-mode enforcement).
type Candidate struct {
	Path      *segment.Path
	Compliant bool
}

// Outcome is transport feedback for one use of a path, reported back into
// the selector so subsequent rankings can react — the simulator's analogue
// of SCMP path revocations and passive latency measurement.
type Outcome struct {
	// Failed marks the path as having failed (dial error or transport
	// teardown). Failed paths are demoted until a later success clears them.
	Failed bool
	// Latency is an observed round-trip latency sample, when one was
	// measured (0 = no sample).
	Latency time.Duration
	// Probe marks a synthetic measurement (background prober) rather than
	// real traffic. Health and latency are ingested either way, but
	// use-driven selectors (RoundRobin rotation) must not treat a probe as
	// a served request.
	Probe bool
	// Passive marks a zero-cost measurement skimmed off live traffic
	// (pooled-connection ack RTTs, proxied-request first-byte times) rather
	// than a dial or a probe. Like probes, passive samples feed health and
	// latency but must not advance use-driven selectors: one served request
	// produces MANY passive samples, and counting each as a "use" would
	// spin a round-robin rotation on ack cadence instead of request
	// cadence.
	Passive bool
}

// Canonical outcomes.
var (
	// Success reports a working path (clears a previous failure).
	Success = Outcome{}
	// Failure reports a failed dial or transport error on the path.
	Failure = Outcome{Failed: true}
)

// Selector ranks candidate paths for a destination and ingests transport
// feedback. Implementations must be safe for concurrent use: the Dialer and
// any number of in-flight requests share one selector.
//
// Rank orders ALL usable paths, most preferred first, tagging each with its
// policy compliance; the caller (Host.Select, Dialer.Dial) applies the
// operational mode: Strict considers only compliant candidates, while
// Opportunistic takes the ranking as-is and falls back down the list.
type Selector interface {
	Rank(dst addr.IA, paths []*segment.Path) []Candidate
	Report(path *segment.Path, outcome Outcome)
}

// PathHealth is one path's live telemetry as exported by a selector:
// down-state from failure reports, and the current round-trip estimate when
// the selector tracks one. It is what the proxy's stats API and the
// extension UI render as per-path liveness (paper §4.2).
type PathHealth struct {
	Fingerprint string        `json:"fingerprint"`
	Down        bool          `json:"down"`
	RTT         time.Duration `json:"rtt"` // 0 = no observation yet
}

// HealthExporter is implemented by selectors that can export per-path
// telemetry. Every built-in selector implements it; compositions merge
// their inner selector's view with their own.
type HealthExporter interface {
	PathHealth() []PathHealth
}

// mergePathHealth folds extra into base by fingerprint: Down is OR-ed and a
// zero RTT never overwrites an observation. The result is sorted by
// fingerprint so exports are deterministic.
func mergePathHealth(base, extra []PathHealth) []PathHealth {
	byFP := make(map[string]PathHealth, len(base)+len(extra))
	for _, h := range base {
		byFP[h.Fingerprint] = h
	}
	for _, h := range extra {
		prev, ok := byFP[h.Fingerprint]
		if !ok {
			byFP[h.Fingerprint] = h
			continue
		}
		prev.Down = prev.Down || h.Down
		if prev.RTT == 0 {
			prev.RTT = h.RTT
		}
		byFP[h.Fingerprint] = prev
	}
	out := make([]PathHealth, 0, len(byFP))
	for _, h := range byFP {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// health tracks per-path liveness shared by the built-in selectors. A path
// reported Failed is demoted within its compliance class until a subsequent
// Success clears it; demoted paths remain candidates of last resort, so a
// destination whose every path has failed is still dialable.
type health struct {
	mu   sync.Mutex
	down map[string]bool // path fingerprint → down
}

// report ingests the liveness half of an outcome.
func (h *health) report(path *segment.Path, outcome Outcome) {
	if path == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if outcome.Failed {
		if h.down == nil {
			h.down = make(map[string]bool)
		}
		h.down[path.Fingerprint()] = true
	} else if h.down != nil {
		delete(h.down, path.Fingerprint())
	}
}

// reportBatch ingests the liveness half of a sample batch under
// ONE lock acquisition.
func (h *health) reportBatch(reports []SampleReport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range reports {
		if r.Path == nil {
			continue
		}
		if r.Outcome.Failed {
			if h.down == nil {
				h.down = make(map[string]bool)
			}
			h.down[r.Path.Fingerprint()] = true
		} else if h.down != nil {
			delete(h.down, r.Path.Fingerprint())
		}
	}
}

// healthView exports the down set as PathHealth entries.
func (h *health) healthView() []PathHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]PathHealth, 0, len(h.down))
	for fp := range h.down {
		out = append(out, PathHealth{Fingerprint: fp, Down: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// isDown reports whether the path has an unresolved failure.
func (h *health) isDown(p *segment.Path) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down[p.Fingerprint()]
}

// demote stably reorders candidates so that, within each compliance class,
// failed paths come after live ones. Cross-class order (compliant before
// non-compliant) is preserved.
func (h *health) demote(cands []Candidate) []Candidate {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.down) == 0 {
		return cands
	}
	out := make([]Candidate, 0, len(cands))
	for _, compliant := range []bool{true, false} {
		for _, c := range cands {
			if c.Compliant == compliant && !h.down[c.Path.Fingerprint()] {
				out = append(out, c)
			}
		}
		for _, c := range cands {
			if c.Compliant == compliant && h.down[c.Path.Fingerprint()] {
				out = append(out, c)
			}
		}
	}
	return out
}

// PolicySelector ranks paths under a PPL policy and an ISD geofence,
// preserving the seed semantics of the paper's §4.1/§4.2: compliant paths
// first (sorted by the policy's orderings), non-compliant paths after them
// in network order as opportunistic fallbacks.
type PolicySelector struct {
	health
	mu    sync.Mutex
	pol   *ppl.Policy
	fence *policy.Geofence
}

// NewPolicySelector builds a selector for a policy and geofence; both may be
// nil (nil policy accepts every path, nil geofence fences nothing).
func NewPolicySelector(pol *ppl.Policy, fence *policy.Geofence) *PolicySelector {
	return &PolicySelector{pol: pol, fence: fence}
}

// Rank implements Selector.
func (s *PolicySelector) Rank(dst addr.IA, paths []*segment.Path) []Candidate {
	s.mu.Lock()
	pol, fence := s.pol, s.fence
	s.mu.Unlock()

	compliant := make([]*segment.Path, 0, len(paths))
	inCompliant := make(map[*segment.Path]bool, len(paths))
	for _, p := range paths {
		if fence.Compliant(p) && (pol == nil || pol.Accepts(p)) {
			compliant = append(compliant, p)
		}
	}
	if pol != nil {
		compliant = pol.Filter(compliant) // apply orderings
	}
	cands := make([]Candidate, 0, len(paths))
	for _, p := range compliant {
		inCompliant[p] = true
		cands = append(cands, Candidate{Path: p, Compliant: true})
	}
	for _, p := range paths {
		if !inCompliant[p] {
			cands = append(cands, Candidate{Path: p, Compliant: false})
		}
	}
	return s.demote(cands)
}

// Report implements Selector.
func (s *PolicySelector) Report(path *segment.Path, outcome Outcome) {
	s.report(path, outcome)
}

// ReportBatch implements BatchSink: one health lock for the whole batch.
func (s *PolicySelector) ReportBatch(reports []SampleReport) {
	s.reportBatch(reports)
}

// PathHealth implements HealthExporter: down-state only (the policy
// selector tracks no latency).
func (s *PolicySelector) PathHealth() []PathHealth {
	return s.healthView()
}

// LatencySelector ranks paths by latency: the metadata latency until
// observations arrive, then an EWMA of reported round-trip samples. Paths
// reported down are demoted until they succeed again. Every path is
// considered compliant (compose with PinnedSelector/RoundRobinSelector or
// use a PolicySelector when policy filtering is wanted).
type LatencySelector struct {
	health
	mu       sync.Mutex
	observed map[string]time.Duration // fingerprint → EWMA RTT
}

// NewLatencySelector builds a latency-ranking selector.
func NewLatencySelector() *LatencySelector {
	return &LatencySelector{observed: make(map[string]time.Duration)}
}

// latencyOf returns the ranking key for a path.
func (s *LatencySelector) latencyOf(p *segment.Path) time.Duration {
	if obs, ok := s.observed[p.Fingerprint()]; ok {
		return obs
	}
	// Metadata latency is one-way; scale to RTT so metadata and observed
	// samples rank on comparable units.
	return 2 * p.Meta.Latency
}

// Rank implements Selector.
func (s *LatencySelector) Rank(dst addr.IA, paths []*segment.Path) []Candidate {
	s.mu.Lock()
	type keyed struct {
		c   Candidate
		lat time.Duration
	}
	ks := make([]keyed, len(paths))
	for i, p := range paths {
		ks[i] = keyed{Candidate{Path: p, Compliant: true}, s.latencyOf(p)}
	}
	s.mu.Unlock()
	// Stable: network order breaks latency ties.
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].lat < ks[j].lat })
	cands := make([]Candidate, len(ks))
	for i, k := range ks {
		cands[i] = k.c
	}
	return s.demote(cands)
}

// Report implements Selector: failures demote, successes with a latency
// sample update the path's EWMA (α = 1/4, the TCP SRTT gain).
func (s *LatencySelector) Report(path *segment.Path, outcome Outcome) {
	s.report(path, outcome)
	if path == nil || outcome.Failed || outcome.Latency <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := path.Fingerprint()
	if prev, ok := s.observed[fp]; ok {
		s.observed[fp] = prev - prev/4 + outcome.Latency/4
	} else {
		s.observed[fp] = outcome.Latency
	}
}

// ReportBatch implements BatchSink: an ingested batch updates the EWMAs
// under ONE selector lock (and one health lock) instead of a lock
// round-trip per sample — the sink half of the monitor's batched ingest.
func (s *LatencySelector) ReportBatch(reports []SampleReport) {
	s.reportBatch(reports)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reports {
		if r.Path == nil || r.Outcome.Failed || r.Outcome.Latency <= 0 {
			continue
		}
		fp := r.Path.Fingerprint()
		if prev, ok := s.observed[fp]; ok {
			s.observed[fp] = prev - prev/4 + r.Outcome.Latency/4
		} else {
			s.observed[fp] = r.Outcome.Latency
		}
	}
}

// PathHealth implements HealthExporter: every path with an RTT observation
// or an unresolved failure, RTTs being the live EWMA the ranking uses.
func (s *LatencySelector) PathHealth() []PathHealth {
	s.mu.Lock()
	observed := make([]PathHealth, 0, len(s.observed))
	for fp, rtt := range s.observed {
		observed = append(observed, PathHealth{Fingerprint: fp, RTT: rtt})
	}
	s.mu.Unlock()
	return mergePathHealth(observed, s.healthView())
}

// RoundRobinSelector spreads load across the live compliant paths of an
// inner selector's ranking. Rotation advances on REPORTED USE — each
// Report(Success) moves the destination's next first choice — not on Rank,
// so availability probes (proxy.CheckSCION) and failover re-ranks don't
// skew which paths carry actual traffic.
type RoundRobinSelector struct {
	health
	inner Selector
	mu    sync.Mutex
	next  map[addr.IA]int
}

// NewRoundRobinSelector wraps inner (nil = accept-everything PolicySelector)
// with per-destination rotation.
func NewRoundRobinSelector(inner Selector) *RoundRobinSelector {
	if inner == nil {
		inner = NewPolicySelector(nil, nil)
	}
	return &RoundRobinSelector{inner: inner, next: make(map[addr.IA]int)}
}

// Rank implements Selector: the live compliant prefix of the inner ranking
// is rotated; down paths (demoted to the prefix's tail by the inner
// selector's health) and non-compliant fallbacks keep their demoted order.
func (r *RoundRobinSelector) Rank(dst addr.IA, paths []*segment.Path) []Candidate {
	cands := r.inner.Rank(dst, paths)
	k := 0
	for k < len(cands) && cands[k].Compliant {
		k++
	}
	live := k
	for live > 0 && r.isDown(cands[live-1].Path) {
		live--
	}
	if live < 2 {
		return cands
	}
	r.mu.Lock()
	shift := r.next[dst] % live
	r.mu.Unlock()
	if shift == 0 {
		return cands
	}
	out := make([]Candidate, 0, len(cands))
	out = append(out, cands[shift:live]...)
	out = append(out, cands[:shift]...)
	return append(out, cands[live:]...)
}

// Report implements Selector: outcomes feed the inner selector and the
// rotation's own health view, and each successful USE advances the path's
// destination to its next first choice. Probe and passive outcomes
// contribute health and latency but never advance the rotation —
// background probing and per-ack passive samples must not skew which paths
// carry actual traffic.
func (r *RoundRobinSelector) Report(path *segment.Path, outcome Outcome) {
	r.inner.Report(path, outcome)
	r.report(path, outcome)
	if path != nil && !outcome.Failed && !outcome.Probe && !outcome.Passive {
		r.mu.Lock()
		r.next[path.Dst]++
		r.mu.Unlock()
	}
}

// ReportBatch implements BatchSink: the inner selector gets the batch in
// one call when it can take it (per-sample otherwise), the rotation's
// health and advance counters update under one lock each. Passive and
// probe samples never advance the rotation, exactly as in Report.
func (r *RoundRobinSelector) ReportBatch(reports []SampleReport) {
	if bs, ok := r.inner.(BatchSink); ok {
		bs.ReportBatch(reports)
	} else {
		for _, rep := range reports {
			r.inner.Report(rep.Path, rep.Outcome)
		}
	}
	r.reportBatch(reports)
	advanced := false
	for _, rep := range reports {
		if rep.Path != nil && !rep.Outcome.Failed && !rep.Outcome.Probe && !rep.Outcome.Passive {
			if !advanced {
				r.mu.Lock()
				advanced = true
			}
			r.next[rep.Path.Dst]++
		}
	}
	if advanced {
		r.mu.Unlock()
	}
}

// PathHealth implements HealthExporter: the inner selector's view merged
// with the rotation's own down set.
func (r *RoundRobinSelector) PathHealth() []PathHealth {
	var inner []PathHealth
	if he, ok := r.inner.(HealthExporter); ok {
		inner = he.PathHealth()
	}
	return mergePathHealth(inner, r.healthView())
}

// PinnedSelector lets the user pin a specific path per destination — the
// paper's §4.2 interactive path-selection UI hook. A pinned path is moved to
// the front of the inner selector's ranking, keeping its compliance flag:
// opportunistic mode follows the pin (flagging non-compliance), while strict
// mode SILENTLY overrides a non-compliant pin, routing over the best
// compliant path instead. A UI that must surface the override compares
// Selection.Path against Pinned(dst). When the pinned path has vanished the
// inner ranking applies unchanged.
type PinnedSelector struct {
	inner Selector
	mu    sync.Mutex
	pins  map[addr.IA]string // destination → pinned path fingerprint
}

// NewPinnedSelector wraps inner (nil = accept-everything PolicySelector).
func NewPinnedSelector(inner Selector) *PinnedSelector {
	if inner == nil {
		inner = NewPolicySelector(nil, nil)
	}
	return &PinnedSelector{inner: inner, pins: make(map[addr.IA]string)}
}

// Pin fixes the path (by fingerprint) used for a destination.
func (s *PinnedSelector) Pin(dst addr.IA, fingerprint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[dst] = fingerprint
}

// Unpin removes a destination's pin.
func (s *PinnedSelector) Unpin(dst addr.IA) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pins, dst)
}

// Pinned returns the active pin for a destination, if any.
func (s *PinnedSelector) Pinned(dst addr.IA) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, ok := s.pins[dst]
	return fp, ok
}

// Rank implements Selector.
func (s *PinnedSelector) Rank(dst addr.IA, paths []*segment.Path) []Candidate {
	cands := s.inner.Rank(dst, paths)
	s.mu.Lock()
	fp, ok := s.pins[dst]
	s.mu.Unlock()
	if !ok {
		return cands
	}
	for i, c := range cands {
		if c.Path.Fingerprint() == fp {
			out := make([]Candidate, 0, len(cands))
			out = append(out, c)
			out = append(out, cands[:i]...)
			return append(out, cands[i+1:]...)
		}
	}
	return cands
}

// Report implements Selector.
func (s *PinnedSelector) Report(path *segment.Path, outcome Outcome) {
	s.inner.Report(path, outcome)
}

// ReportBatch implements BatchSink by delegation.
func (s *PinnedSelector) ReportBatch(reports []SampleReport) {
	if bs, ok := s.inner.(BatchSink); ok {
		bs.ReportBatch(reports)
		return
	}
	for _, r := range reports {
		s.inner.Report(r.Path, r.Outcome)
	}
}

// PathHealth implements HealthExporter by delegation: pinning adds no
// telemetry of its own.
func (s *PinnedSelector) PathHealth() []PathHealth {
	if he, ok := s.inner.(HealthExporter); ok {
		return he.PathHealth()
	}
	return nil
}
