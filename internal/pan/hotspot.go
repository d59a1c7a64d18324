package pan

import (
	"sort"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// LinkTelemetry is the link-level view a HotspotSelector ranks over —
// implemented by Monitor. PathPenalty is the hotspot cost of routing over a
// path (zero when no tracked link on it runs hot).
type LinkTelemetry interface {
	PathPenalty(p *segment.Path) time.Duration
}

// HotspotSelector ranks paths by observed latency PLUS the hotspot penalty
// of the links they traverse (cf. "Finding Route Hotspots in Large Labeled
// Networks", PAPERS.md): a path whose end-to-end average still looks fine
// but which crosses a high-variance shared link is demoted below a slightly
// slower path with stable links.
//
// This is the ranking a plain LatencySelector cannot express: end-to-end
// EWMA averages congestion away, while the link decomposition localizes it
// — two paths degrading together indict the link they share, and the
// selector routes around that link for both.
//
// Latency bookkeeping mirrors LatencySelector (metadata until observations
// arrive, then EWMA of reported samples); every path is considered
// compliant, so compose with PolicySelector/PinnedSelector for policy.
type HotspotSelector struct {
	health
	links LinkTelemetry

	mu       sync.Mutex
	observed map[string]time.Duration // fingerprint → EWMA RTT
}

// NewHotspotSelector builds a hotspot-aware selector over a link-telemetry
// source, typically the host's Monitor. A nil source degrades to plain
// latency ranking.
func NewHotspotSelector(links LinkTelemetry) *HotspotSelector {
	return &HotspotSelector{links: links, observed: make(map[string]time.Duration)}
}

// latencyOf returns the latency half of the ranking key.
func (s *HotspotSelector) latencyOf(p *segment.Path) time.Duration {
	if obs, ok := s.observed[p.Fingerprint()]; ok {
		return obs
	}
	// Metadata latency is one-way; scale to RTT so metadata and observed
	// samples rank on comparable units.
	return 2 * p.Meta.Latency
}

// Rank implements Selector: ascending latency + hotspot penalty, stable on
// network order, down paths demoted last.
func (s *HotspotSelector) Rank(dst addr.IA, paths []*segment.Path) []Candidate {
	type keyed struct {
		c     Candidate
		score time.Duration
	}
	ks := make([]keyed, len(paths))
	s.mu.Lock()
	for i, p := range paths {
		ks[i] = keyed{Candidate{Path: p, Compliant: true}, s.latencyOf(p)}
	}
	s.mu.Unlock()
	if s.links != nil {
		// Penalties are computed outside s.mu: the telemetry source takes
		// its own locks.
		for i := range ks {
			ks[i].score += s.links.PathPenalty(ks[i].c.Path)
		}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].score < ks[j].score })
	cands := make([]Candidate, len(ks))
	for i, k := range ks {
		cands[i] = k.c
	}
	return s.demote(cands)
}

// Report implements Selector: failures demote, latency samples update the
// path's EWMA (α = 1/4, the TCP SRTT gain).
func (s *HotspotSelector) Report(path *segment.Path, outcome Outcome) {
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

// ReportBatch implements BatchSink: one health lock and one EWMA lock for
// the whole batch, mirroring LatencySelector.ReportBatch.
func (s *HotspotSelector) ReportBatch(reports []SampleReport) {
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
// or an unresolved failure.
func (s *HotspotSelector) PathHealth() []PathHealth {
	s.mu.Lock()
	observed := make([]PathHealth, 0, len(s.observed))
	for fp, rtt := range s.observed {
		observed = append(observed, PathHealth{Fingerprint: fp, RTT: rtt})
	}
	s.mu.Unlock()
	return mergePathHealth(observed, s.healthView())
}
