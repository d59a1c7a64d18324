package pan

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// LinkSnapshotVersion is the wire version of LinkSnapshot. Importers reject
// snapshots of any other version without touching their state.
const LinkSnapshotVersion = 1

// LinkSnapshot is the versioned telemetry snapshot hosts gossip between each
// other: the exporter's LOCALLY measured link congestion estimates plus the
// per-path estimates they decompose from, each stamped with its age at
// export. Ages — not absolute timestamps — make the format clock-agnostic:
// the importer re-anchors every estimate on its own clock and lets it decay
// from there. Imported estimates never re-export, so a snapshot can never
// echo another host's stale view back into the mesh.
type LinkSnapshot struct {
	Version int          `json:"version"`
	Links   []LinkExport `json:"links,omitempty"`
	Paths   []PathExport `json:"paths,omitempty"`
}

// LinkExport is one inter-AS link's congestion estimate on the wire.
type LinkExport struct {
	A          addr.IA       `json:"a"`
	B          addr.IA       `json:"b"`
	Congestion time.Duration `json:"congestion"`
	Dev        time.Duration `json:"dev"`
	Sharers    int           `json:"sharers"`
	Age        time.Duration `json:"age"`
}

// PathExport is one path's end-to-end telemetry on the wire, keyed by the
// destination IA plus the path fingerprint so an importer can match it
// against its own control-plane paths (vantage points in the same AS share
// fingerprints; foreign paths are silently skipped).
type PathExport struct {
	Dst         addr.IA       `json:"dst"`
	Fingerprint string        `json:"fingerprint"`
	RTT         time.Duration `json:"rtt"`
	Dev         time.Duration `json:"dev"`
	Samples     int           `json:"samples"`
	Age         time.Duration `json:"age"`
	Down        bool          `json:"down,omitempty"`
}

// linkPrior is one imported link estimate, re-anchored on the importer's
// clock. It fills gaps only — a link with live local series never consults
// its prior — and its influence decays linearly to zero over the stale-series
// horizon.
type linkPrior struct {
	congestion, dev time.Duration
	importedAt      time.Time     // local clock at import
	ageAtImport     time.Duration // weight-scaled age carried in the snapshot
}

// age is the prior's effective age now: the (scaled) age it arrived with
// plus the local time elapsed since.
func (pr *linkPrior) age(now time.Time) time.Duration {
	return pr.ageAtImport + now.Sub(pr.importedAt)
}

// penalty is the prior's contribution to PathPenalty: the usual
// congestion + 2·deviation, scaled down linearly with age so a peer's
// estimate fades instead of steering traffic on ancient hearsay.
func (pr *linkPrior) penalty(now time.Time, horizon time.Duration) time.Duration {
	age := pr.age(now)
	if horizon <= 0 || age >= horizon {
		return 0
	}
	raw := pr.congestion + 2*pr.dev
	return time.Duration(float64(raw) * float64(horizon-age) / float64(horizon))
}

// ExportLinks snapshots the monitor's locally measured telemetry for gossip:
// every live link congestion estimate and every path entry with at least one
// local sample (or an unresolved local failure). Imported priors are
// excluded — see LinkSnapshot. Output ordering is deterministic.
func (m *Monitor) ExportLinks() LinkSnapshot {
	now := m.clock.Now()
	snap := LinkSnapshot{Version: LinkSnapshotVersion}
	m.mu.Lock()
	stats, _ := m.linkCacheLocked()
	cacheLag := now.Sub(m.linkCacheAt)
	for _, st := range stats {
		snap.Links = append(snap.Links, LinkExport{
			A: st.A, B: st.B,
			Congestion: st.Congestion,
			Dev:        st.Dev,
			Sharers:    st.Sharers,
			Age:        st.Age + cacheLag,
		})
	}
	for fp, e := range m.entries {
		if e.prior || (e.samples == 0 && !e.down) {
			continue
		}
		var age time.Duration
		if !e.lastSample.IsZero() {
			age = now.Sub(e.lastSample)
		}
		snap.Paths = append(snap.Paths, PathExport{
			Dst:         e.path.Dst,
			Fingerprint: fp,
			RTT:         e.rtt,
			Dev:         e.dev,
			Samples:     e.samples,
			Age:         age,
			Down:        e.down,
		})
	}
	m.mu.Unlock()
	sort.Slice(snap.Paths, func(i, j int) bool {
		if snap.Paths[i].Dst != snap.Paths[j].Dst {
			a, b := snap.Paths[i].Dst, snap.Paths[j].Dst
			return a.ISD < b.ISD || (a.ISD == b.ISD && a.AS < b.AS)
		}
		return snap.Paths[i].Fingerprint < snap.Paths[j].Fingerprint
	})
	return snap
}

// Import errors.
var (
	// ErrSnapshotVersion rejects a snapshot of an unknown wire version.
	ErrSnapshotVersion = errors.New("pan: unsupported link snapshot version")
	// ErrSnapshotMalformed rejects a structurally invalid snapshot.
	ErrSnapshotMalformed = errors.New("pan: malformed link snapshot")
	// ErrSnapshotWeight rejects an import weight outside (0, 1].
	ErrSnapshotWeight = errors.New("pan: snapshot import weight must be in (0, 1]")
)

// validateSnapshot checks the snapshot structurally BEFORE anything is
// applied, so a rejected import provably mutates no state.
func validateSnapshot(snap LinkSnapshot) error {
	if snap.Version != LinkSnapshotVersion {
		return fmt.Errorf("%w: %d", ErrSnapshotVersion, snap.Version)
	}
	for _, l := range snap.Links {
		if l.A.IsZero() || l.B.IsZero() || l.A == l.B {
			return fmt.Errorf("%w: link %s<->%s", ErrSnapshotMalformed, l.A, l.B)
		}
		if l.Congestion < 0 || l.Dev < 0 || l.Age < 0 || l.Sharers < 0 {
			return fmt.Errorf("%w: link %s<->%s carries negative values", ErrSnapshotMalformed, l.A, l.B)
		}
	}
	for _, p := range snap.Paths {
		if p.Fingerprint == "" || p.Dst.IsZero() {
			return fmt.Errorf("%w: path entry missing identity", ErrSnapshotMalformed)
		}
		if p.RTT < 0 || p.Dev < 0 || p.Age < 0 || p.Samples < 0 {
			return fmt.Errorf("%w: path %s carries negative values", ErrSnapshotMalformed, p.Fingerprint)
		}
	}
	return nil
}

// ImportLinks merges a peer's snapshot into the monitor as PRIORS, weighted
// by trust: weight 1 takes the peer's estimates at face value, lower weights
// age them faster (an estimate of age A imports as age A/weight), so a
// less-trusted vantage point both decays sooner and loses freshness ties.
// The merge rules, in order:
//
//   - Malformed or wrong-version snapshots (and weights outside (0, 1]) are
//     rejected with an error before ANY state changes.
//   - Link estimates land in a prior store consulted by PathPenalty only for
//     links with no live local series; among competing priors the effectively
//     younger one wins. Priors decay with age and are never re-exported.
//   - Path estimates fill only entries with no local samples (creating
//     missing entries for paths this host's control plane knows); the first
//     live local sample REPLACES an imported estimate outright. Paths this
//     host cannot resolve, and estimates already stale beyond the series
//     horizon, are skipped.
//   - Nothing is scheduled: imported entries carry no probe deadline (they
//     join the schedule only when a dialer tracks their destination), an
//     already-scheduled path's timer is untouched, and no probe suppression
//     stamp is set — gossip warms estimates, never the probe plan.
//
// It returns how many link and path estimates were applied.
func (m *Monitor) ImportLinks(snap LinkSnapshot, weight float64) (int, error) {
	if !(weight > 0 && weight <= 1) {
		return 0, fmt.Errorf("%w: %v", ErrSnapshotWeight, weight)
	}
	if err := validateSnapshot(snap); err != nil {
		return 0, err
	}
	scale := func(age time.Duration) time.Duration {
		return time.Duration(float64(age) / weight)
	}
	now := m.clock.Now()
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	applied := 0
	m.mu.Lock()
	for _, l := range snap.Links {
		effAge := scale(l.Age)
		if effAge >= horizon {
			continue
		}
		lk := canonicalLink(l.A, l.B)
		if prev := m.priors[lk]; prev != nil && prev.age(now) <= effAge {
			continue // the prior already held is effectively younger
		}
		m.priors[lk] = &linkPrior{
			congestion:  l.Congestion,
			dev:         l.Dev,
			importedAt:  now,
			ageAtImport: effAge,
		}
		applied++
	}
	m.mu.Unlock()
	// Resolve imported paths against this host's own control plane, one
	// lookup per destination — outside the monitor lock; the per-path apply
	// then takes it, like any other ingest.
	byDst := make(map[addr.IA]map[string]*segment.Path)
	for _, p := range snap.Paths {
		effAge := scale(p.Age)
		if effAge >= horizon {
			continue
		}
		if p.Samples == 0 && !p.Down {
			continue
		}
		known := byDst[p.Dst]
		if known == nil {
			known = make(map[string]*segment.Path)
			for _, kp := range m.paths(p.Dst) {
				known[kp.Fingerprint()] = kp
			}
			byDst[p.Dst] = known
		}
		path := known[p.Fingerprint]
		if path == nil {
			continue // not a path this host can use
		}
		m.mu.Lock()
		e := m.entries[p.Fingerprint]
		if e == nil {
			e = &monEntry{
				path:     path,
				targets:  make(map[string]*monTarget),
				interval: m.opts.BaseInterval,
			}
			m.entries[p.Fingerprint] = e
		} else if e.samples > 0 && !e.prior {
			m.mu.Unlock()
			continue // live local telemetry always overrides imports
		} else if e.prior && !e.lastSample.IsZero() && now.Sub(e.lastSample) <= effAge {
			m.mu.Unlock()
			continue // the prior already held is effectively younger
		}
		e.rtt, e.dev = p.RTT, p.Dev
		e.samples, e.passive = p.Samples, 0
		e.down = p.Down
		e.prior = true
		e.lastSample = now.Add(-effAge)
		m.mu.Unlock()
		applied++
	}
	return applied, nil
}
