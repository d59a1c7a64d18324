// Package pathdb implements the SCION path-server infrastructure of the
// simulation: a registry where beaconing registers up-, core-, and
// down-segments, and the end-host path combinator that assembles complete
// end-to-end paths (including shortcut and peering combinations) with fully
// aggregated metadata.
//
// In the paper's words: "End hosts fetching path segments thus receive the
// fully decorated paths containing all added information" — Lookup is that
// fetch, Combine builds the dozens of path options the end host selects
// from.
//
// Like the SCION end-host daemon, the combiner answers from a cache of
// combined paths, one entry per (src, dst). An entry is served while the
// registry generation it read is current (every Register* bumps it) and the
// query instant lies in [computed-at, until), where until is the earliest
// expiry of any segment read or path returned; an earlier instant
// recomputes. Returned paths, and the slice holding them, are shared by
// every caller and must not be mutated.
package pathdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/cppki"
	"tango/internal/segment"
)

// Registry is the (logically distributed, here centralized) path-server
// infrastructure. It verifies segments against the trust store on
// registration, so queries return only authenticated segments. It is safe
// for concurrent use.
type Registry struct {
	store *cppki.Store

	mu   sync.RWMutex
	up   map[addr.IA]map[string]*segment.Segment // leaf AS -> segID -> seg
	down map[addr.IA]map[string]*segment.Segment
	core map[addr.IA]map[string]*segment.Segment // origin core AS -> segID -> seg
	gen  atomic.Uint64                           // bumped by every registration
}

// NewRegistry builds an empty registry verifying against store. A nil store
// disables verification (used only by focused unit tests).
func NewRegistry(store *cppki.Store) *Registry {
	return &Registry{
		store: store,
		up:    make(map[addr.IA]map[string]*segment.Segment),
		down:  make(map[addr.IA]map[string]*segment.Segment),
		core:  make(map[addr.IA]map[string]*segment.Segment),
	}
}

// RegisterUp registers seg as an up segment for its terminal AS.
func (r *Registry) RegisterUp(seg *segment.Segment, at time.Time) error {
	return r.register(r.up, seg.LastIA(), seg, at)
}

// RegisterDown registers seg as a down segment toward its terminal AS.
func (r *Registry) RegisterDown(seg *segment.Segment, at time.Time) error {
	return r.register(r.down, seg.LastIA(), seg, at)
}

// RegisterCore registers a core segment under its origin AS.
func (r *Registry) RegisterCore(seg *segment.Segment, at time.Time) error {
	return r.register(r.core, seg.FirstIA(), seg, at)
}

func (r *Registry) register(m map[addr.IA]map[string]*segment.Segment, key addr.IA, seg *segment.Segment, at time.Time) error {
	if r.store != nil {
		if err := seg.Verify(r.store, at); err != nil {
			return fmt.Errorf("registering segment: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m[key] == nil {
		m[key] = make(map[string]*segment.Segment)
	}
	m[key][seg.ID()] = seg
	r.gen.Add(1)
	return nil
}

// UpSegments returns the registered up segments of ia (construction
// direction: core first), excluding expired ones.
func (r *Registry) UpSegments(ia addr.IA, at time.Time) []*segment.Segment {
	return r.query(r.up, ia, at)
}

// DownSegments returns the registered down segments toward ia.
func (r *Registry) DownSegments(ia addr.IA, at time.Time) []*segment.Segment {
	return r.query(r.down, ia, at)
}

// CoreSegments returns core segments connecting the two core ASes in either
// construction orientation, tagged with the orientation needed to travel
// from src to dst.
func (r *Registry) CoreSegments(src, dst addr.IA, at time.Time) []OrientedSegment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []OrientedSegment
	// Construction src -> dst: travel with construction.
	for _, seg := range r.core[src] {
		if seg.LastIA() == dst && seg.Expiry().After(at) {
			out = append(out, OrientedSegment{Seg: seg, AgainstConstruction: false})
		}
	}
	// Construction dst -> src: travel against construction.
	for _, seg := range r.core[dst] {
		if seg.LastIA() == src && seg.Expiry().After(at) {
			out = append(out, OrientedSegment{Seg: seg, AgainstConstruction: true})
		}
	}
	return out
}

func (r *Registry) query(m map[addr.IA]map[string]*segment.Segment, ia addr.IA, at time.Time) []*segment.Segment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*segment.Segment
	for _, seg := range m[ia] {
		if seg.Expiry().After(at) {
			out = append(out, seg)
		}
	}
	return out
}

// Counts returns the number of registered up/down/core segments, for
// diagnostics.
func (r *Registry) Counts() (up, down, core int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.up {
		up += len(m)
	}
	for _, m := range r.down {
		down += len(m)
	}
	for _, m := range r.core {
		core += len(m)
	}
	return
}

// OrientedSegment pairs a core segment with the direction it must be
// traveled in to lead from the query's source core AS to its destination.
type OrientedSegment struct {
	Seg                 *segment.Segment
	AgainstConstruction bool
}
