package pan

import (
	"cmp"
	"slices"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// LinkStat is the congestion estimate of one inter-AS link, derived by
// decomposing end-to-end path probes. Congestion is the minimum observed
// excess RTT (over the paths' metadata baseline) among all tracked paths
// crossing the link — boolean-tomography style, so a link is only blamed
// when EVERY path crossing it runs hot — and Dev is the deviation of that
// minimal series, the instability signal HotspotSelector penalizes.
type LinkStat struct {
	A, B       addr.IA       // link endpoints, canonical order
	Congestion time.Duration // min EWMA excess RTT across crossing paths
	Dev        time.Duration // EWMA absolute deviation of the minimal series
	Sharers    int           // tracked paths currently crossing the link
	Age        time.Duration // time since the freshest underlying sample
}

// linkKey identifies an inter-AS link independent of direction.
type linkKey struct{ a, b addr.IA }

func canonicalLink(x, y addr.IA) linkKey {
	if cmpIA(y, x) < 0 {
		x, y = y, x
	}
	return linkKey{a: x, b: y}
}

// pathLinks enumerates the inter-AS links of a path in travel order.
func pathLinks(p *segment.Path) []linkKey {
	out := make([]linkKey, 0, len(p.Hops))
	for i := 1; i < len(p.Hops); i++ {
		if p.Hops[i-1].IA != p.Hops[i].IA {
			out = append(out, canonicalLink(p.Hops[i-1].IA, p.Hops[i].IA))
		}
	}
	return out
}

// linkKeys returns the entry's links, memoizing them on first use.
func (e *monEntry) linkKeys() []linkKey {
	if e.links == nil {
		e.links = pathLinks(e.path)
	}
	return e.links
}

// excessSeries is the EWMA of one path's excess RTT, charged to each link
// the path crosses.
type excessSeries struct {
	mean    time.Duration
	dev     time.Duration
	samples int
	last    time.Time
}

func (s *excessSeries) ingest(x time.Duration, now time.Time) {
	if s.samples == 0 {
		s.mean = x
	} else {
		diff := x - s.mean
		if diff < 0 {
			diff = -diff
		}
		s.dev = s.dev - s.dev/4 + diff/4
		s.mean = s.mean - s.mean/4 + x/4
	}
	s.samples++
	s.last = now
}

// expire restarts a series whose last sample is older than horizon, so
// that its next sample starts it afresh instead of blending into a stale
// mean. The link-view rebuild and pruning call it, never the per-sample
// path.
func (s *excessSeries) expire(now time.Time, horizon time.Duration) {
	if s.samples > 0 && now.Sub(s.last) > horizon {
		*s = excessSeries{}
	}
}

// staleSeriesAfter is how long (in MaxIntervals) a path's excess series
// survives without a new sample before the link view ignores it.
const staleSeriesAfter = 10

// linkCacheLocked returns the memoized link snapshot (sorted slice + by-key
// map), rebuilding it only when dirty (a sample was ingested or pruning ran
// since) or older than MaxInterval (so series expiring purely by age still
// drop out). A rebuild refills the same slice and map, so both are the cache
// itself and valid only while mu is held: callers copy before handing
// anything out. Caller holds mu.
func (m *Monitor) linkCacheLocked() ([]LinkStat, map[linkKey]LinkStat) {
	now := m.clock.Now()
	if !m.linkDirty && m.linkCache != nil && now.Sub(m.linkCacheAt) <= m.opts.MaxInterval {
		return m.linkCache, m.linkCacheMap
	}
	m.linkDirty = false
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	// Each link's estimate is the minimum mean among the live series of
	// the paths crossing it (ties to the lower deviation), with the age of
	// the youngest. Boolean-tomography logic: if ANY path crossing the link
	// is clean, the link is exonerated and the congestion lives elsewhere.
	if m.linkCacheMap == nil {
		m.linkCacheMap = make(map[linkKey]LinkStat)
	}
	byKey := m.linkCacheMap
	clear(byKey)
	for _, e := range m.entries {
		s := &e.excess
		s.expire(now, horizon)
		if s.samples == 0 {
			continue
		}
		age := now.Sub(s.last)
		for _, lk := range e.linkKeys() {
			st, ok := byKey[lk]
			if !ok {
				st = LinkStat{A: lk.a, B: lk.b, Congestion: s.mean, Dev: s.dev, Age: age}
			} else if s.mean < st.Congestion || (s.mean == st.Congestion && s.dev < st.Dev) {
				st.Congestion, st.Dev = s.mean, s.dev
			}
			st.Age = min(st.Age, age)
			st.Sharers++
			byKey[lk] = st
		}
	}
	// Aged-out priors ride along with the rebuild.
	for lk, pr := range m.priors {
		if pr.age(now) > horizon {
			delete(m.priors, lk)
		}
	}
	out := m.linkCache[:0]
	for _, st := range byKey {
		out = append(out, st)
	}
	slices.SortFunc(out, func(x, y LinkStat) int {
		return cmp.Or(cmpIA(x.A, y.A), cmpIA(x.B, y.B))
	})
	m.linkCache, m.linkCacheAt = out, now
	return out, byKey
}

// cmpIA orders ISD-AS numbers by ISD, then AS.
func cmpIA(x, y addr.IA) int {
	return cmp.Or(cmp.Compare(x.ISD, y.ISD), cmp.Compare(x.AS, y.AS))
}

// LinkStats exports the per-link congestion estimates measured LOCALLY,
// sorted by endpoints for deterministic output. Imported priors are not
// included: they feed PathPenalty (and hence ranking) but never re-export,
// so gossip cannot echo a stale estimate between hosts forever. The snapshot
// is cached between sample ingests — this is called per gossip round and per
// stats scrape.
func (m *Monitor) LinkStats() []LinkStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats, _ := m.linkCacheLocked()
	return append([]LinkStat(nil), stats...)
}

// PathPenalty is the hotspot cost of routing over p: the sum over its links
// of congestion + 2·deviation. A path avoiding every hot shared link pays
// ~zero; a path crossing a high-variance shared link pays the instability
// that end-to-end EWMA averaging hides. This is what HotspotSelector adds
// to its latency ranking key.
//
// Links with no live local series fall back to an imported prior when one is
// present (age-decayed, so a peer's warm estimate fades as it goes stale):
// the warm-start half of link-state sharing. A link with ANY live series
// ignores its prior — local measurement always overrides imports.
func (m *Monitor) PathPenalty(p *segment.Path) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, byKey := m.linkCacheLocked()
	return m.penaltyLocked(p, byKey, m.clock.Now())
}

// penaltyLocked is PathPenalty against an already fetched link snapshot.
// A path the monitor holds an entry for uses the entry's memoized links.
// Caller holds mu.
func (m *Monitor) penaltyLocked(p *segment.Path, byKey map[linkKey]LinkStat, now time.Time) time.Duration {
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	var links []linkKey
	if e := m.entries[p.Fingerprint()]; e != nil {
		links = e.linkKeys()
	} else {
		links = pathLinks(p)
	}
	var sum time.Duration
	for _, lk := range links {
		if st, ok := byKey[lk]; ok {
			sum += st.Congestion + 2*st.Dev
			continue
		}
		if pr := m.priors[lk]; pr != nil {
			sum += pr.penalty(now, horizon)
		}
	}
	return sum
}

// PathStat bundles one path's telemetry with its hotspot penalty — what a
// ranking pass needs per candidate.
type PathStat struct {
	Telemetry PathTelemetry
	// Known reports whether the monitor holds an entry for the path at all
	// (Telemetry is zero-valued otherwise, except for the fingerprint).
	Known bool
	// Penalty is PathPenalty for the path: live link stats, or age-decayed
	// imported priors on links never measured locally.
	Penalty time.Duration
}

// PathStats evaluates every path's telemetry and hotspot penalty in a
// batch under one lock acquisition — the batched form of
// Telemetry+PathPenalty for ranking passes that run on hot paths
// (reverse-path steering evaluates per sample batch on the packet delivery
// path; 2·N lock round-trips per evaluation would contend with probe
// ingest across every served connection).
func (m *Monitor) PathStats(paths []*segment.Path) []PathStat {
	return m.PathStatsAppend(nil, paths)
}

// PathStatsAppend is PathStats appending into dst (often a scratch slice a
// steering pass reuses across evaluations, keeping the per-sample ranking
// path allocation-free).
func (m *Monitor) PathStatsAppend(dst []PathStat, paths []*segment.Path) []PathStat {
	start := len(dst)
	if need := start + len(paths); cap(dst) >= need {
		dst = dst[:need]
	} else {
		grown := make([]PathStat, need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[start:]
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range paths {
		fp := p.Fingerprint()
		st := PathStat{Telemetry: PathTelemetry{Fingerprint: fp}}
		if e := m.entries[fp]; e != nil {
			st.Telemetry = m.telemetryLocked(fp, e)
			st.Known = true
		}
		out[i] = st
	}
	_, byKey := m.linkCacheLocked()
	now := m.clock.Now()
	for i, p := range paths {
		out[i].Penalty = m.penaltyLocked(p, byKey, now)
	}
	return dst
}
