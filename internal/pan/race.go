package pan

import "time"

// Racing: how wide a dial races (AdviseRaceWidth, from the monitor's path
// telemetry) and which paths race. When a dial races wide, the racer set
// should not stack every handshake onto the same shared links — one
// congested link would then sink all racers at once, which defeats
// racing's entire point.

// DisjointRace picks the racer set for a width-w race from a ranked
// candidate list. The leader (cands[0]) always races; each further slot goes
// to the highest-ranked remaining candidate whose inter-AS link set overlaps
// the already-picked racers' links the LEAST (fully disjoint when possible)
// — greedy max-disjoint over the paths' link sets. Ties break by rank, so
// with no link diversity available the pick degrades to plain top-k.
//
// The returned slice is ordered by pick (leader first), which is also the
// stagger order: the most-preferred racer keeps its head start.
func DisjointRace(cands []Candidate, width int) []Candidate {
	if width > len(cands) {
		width = len(cands)
	}
	if width <= 0 {
		return nil
	}
	picked := make([]Candidate, 0, width)
	taken := make([]bool, len(cands))
	used := make(map[linkKey]bool)
	take := func(i int) {
		taken[i] = true
		picked = append(picked, cands[i])
		for _, lk := range pathLinks(cands[i].Path) {
			used[lk] = true
		}
	}
	take(0)
	for len(picked) < width {
		bestIdx, bestOverlap := -1, 0
		for i, c := range cands {
			if taken[i] {
				continue
			}
			overlap := 0
			for _, lk := range pathLinks(c.Path) {
				if used[lk] {
					overlap++
				}
			}
			if bestIdx == -1 || overlap < bestOverlap {
				bestIdx, bestOverlap = i, overlap
			}
		}
		if bestIdx == -1 {
			break
		}
		take(bestIdx)
	}
	return picked
}

// DefaultAdaptiveRaceWidth caps adaptive racing when the Dialer's RaceWidth
// leaves the cap unset.
const DefaultAdaptiveRaceWidth = 3

// RaceSpreadMargin is the minimum RTT band within which a follower counts
// as a close contender worth racing, regardless of how tight the leader's
// deviation estimate is.
const RaceSpreadMargin = 15 * time.Millisecond

// AdviseRaceWidth picks a race width from the telemetry of the top-ranked
// candidates (rank order, tels[0] = leader), capped at max:
//
//   - unknown, stale, or down leader telemetry → race the full width (the
//     ranking cannot be trusted narrow);
//   - a fresh, healthy leader races only the followers that are plausibly
//     the real leader: unknown/stale followers, and fresh ones whose
//     PESSIMISTIC estimate (RTT + 2·deviation — an unstable path must not
//     look attractive on its mean) lands within max(2·leader deviation,
//     RaceSpreadMargin) of the leader's RTT;
//   - a fresh follower that is clearly slower or unstable — or fresh and
//     down — is not raced.
//
// With a clearly healthy leader the advice collapses to width 1: no extra
// handshakes on the wire, exactly the paper's "race wide only when it could
// pay" behavior.
func AdviseRaceWidth(tels []PathTelemetry, max int) (width int, reason string) {
	if max < 1 {
		max = DefaultAdaptiveRaceWidth
	}
	if len(tels) < max {
		max = len(tels)
	}
	if max <= 1 {
		return 1, "single-candidate"
	}
	leader := tels[0]
	switch {
	case leader.Samples == 0 && !leader.Down:
		return max, "no-leader-telemetry"
	case !leader.Fresh:
		return max, "stale-leader"
	case leader.Down:
		return max, "leader-down"
	}
	band := 2 * leader.Dev
	if band < RaceSpreadMargin {
		band = RaceSpreadMargin
	}
	width = 1
	contested := false
	for _, f := range tels[1:] {
		if width >= max {
			break
		}
		switch {
		case f.Samples == 0 && !f.Down, !f.Fresh:
			width++ // can't rule the follower out
		case f.Down:
			// Fresh and down: never worth a racer.
		case f.RTT+2*f.Dev < leader.RTT+band:
			width++
			contested = true
		}
	}
	if width == 1 {
		return 1, "clear-leader"
	}
	if contested {
		return width, "close-contenders"
	}
	return width, "unknown-contenders"
}

// RaceWidth maps a ranked candidate list through AdviseRaceWidth using this
// monitor's telemetry.
func (m *Monitor) RaceWidth(cands []Candidate, max int) (int, string) {
	if max < 1 {
		max = DefaultAdaptiveRaceWidth
	}
	n := max
	if len(cands) < n {
		n = len(cands)
	}
	tels := make([]PathTelemetry, 0, n)
	m.mu.Lock()
	for _, c := range cands[:n] {
		fp := c.Path.Fingerprint()
		if e := m.entries[fp]; e != nil {
			tels = append(tels, m.telemetryLocked(fp, e))
		} else {
			tels = append(tels, PathTelemetry{Fingerprint: fp})
		}
	}
	m.mu.Unlock()
	return AdviseRaceWidth(tels, max)
}
