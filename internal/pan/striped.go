package pan

import (
	"context"
	"errors"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/pan/stripe"
	"tango/internal/segment"
	"tango/internal/squic"
)

// Stripe defaults.
const (
	// DefaultStripeWidth is the number of link-disjoint paths a striped dial
	// targets when StripeOptions.Width is unset.
	DefaultStripeWidth = 2
	// DefaultMinStripeBytes is the transfer size below which callers should
	// prefer a normal (raced) dial over striping: small responses finish
	// within one or two windows on a single path, so extra handshakes cannot
	// pay for themselves.
	DefaultMinStripeBytes = 256 << 10
)

// StripeOptions parameterizes DialStriped.
type StripeOptions struct {
	// Width is the number of link-disjoint paths to stripe over (default 2).
	// The racer set is picked with DisjointRace, so fewer mutually disjoint
	// candidates shrink the set gracefully toward least-overlap.
	Width int
	// SegmentSize is the stripe granularity in bytes
	// (default stripe.DefaultSegmentSize).
	SegmentSize int
	// MinStripeBytes is advisory for callers (proxy, shttp): transfers
	// smaller than this should take the normal dial path. DialStriped itself
	// does not enforce it — the caller knows the response size, the dialer
	// does not. Default DefaultMinStripeBytes.
	MinStripeBytes int64
}

// WithDefaults resolves unset fields.
func (o StripeOptions) WithDefaults() StripeOptions {
	if o.Width <= 0 {
		o.Width = DefaultStripeWidth
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = stripe.DefaultSegmentSize
	}
	if o.MinStripeBytes <= 0 {
		o.MinStripeBytes = DefaultMinStripeBytes
	}
	return o
}

// Striped is a pooled set of connections to one destination over
// link-disjoint paths, plus the per-path stripe pipelines that persist
// congestion and RTT state across fetches. Obtain with Dialer.DialStriped;
// do not close the connections — the owning Dialer's pool does.
type Striped struct {
	dialer     *Dialer
	remote     addr.UDPAddr
	serverName string
	epoch      uint64
	opts       StripeOptions
	sel        Selection // the leader pipeline's selection, for annotations

	// mu serializes fetches: pipeline scheduler state is single-threaded by
	// design. A fetch holds it for the whole transfer, so the dialer must
	// never touch st.mu under its own lock.
	mu sync.Mutex //lint:lockorder stripedfetch before pandialer,stripestatus
	// pipes is set once in DialStriped and never mutated afterwards, so
	// snapshot readers (Status, alive) need no lock — crucially, they must
	// NOT take mu, which a running Fetch holds for the whole transfer.
	pipes []*stripe.Pipeline
}

// Remote returns the striped destination.
func (s *Striped) Remote() addr.UDPAddr { return s.remote }

// Selection returns the leader path's selection (annotation source).
func (s *Striped) Selection() Selection { return s.sel }

// Options returns the resolved stripe options the set was dialed with.
func (s *Striped) Options() StripeOptions { return s.opts }

// Width returns the number of pipelines in the set.
func (s *Striped) Width() int { return len(s.pipes) }

// Status snapshots every pipeline for liveness printouts. Safe to call
// mid-fetch: pipes is immutable and Pipeline.Status locks internally.
func (s *Striped) Status() []stripe.PipelineStatus {
	out := make([]stripe.PipelineStatus, len(s.pipes))
	for i, p := range s.pipes {
		out[i] = p.Status()
	}
	return out
}

// alive reports whether every pipeline still has a live connection and none
// has been abandoned — the pool-reuse criterion: a degraded set is re-dialed
// whole, restoring full width, rather than limping on the survivors.
func (s *Striped) alive() bool {
	if len(s.pipes) == 0 {
		return false
	}
	for _, p := range s.pipes {
		if p.Status().Dead {
			return false
		}
		if c := p.Conn(); c == nil || c.Err() != nil {
			return false
		}
	}
	return true
}

// closeConns closes every pipeline connection (pool eviction).
func (s *Striped) closeConns() {
	for _, p := range s.pipes {
		if c := p.Conn(); c != nil {
			c.Close()
		}
	}
}

// Fetch retrieves [off, off+len(dst)) into dst striped across the set's
// pipelines, using fetch to pull each segment over its assigned pipeline's
// connection. Every accepted segment RTT is streamed into the dialer's
// monitor (when attached) via Observe, so striped transfers double as
// passive telemetry and suppress the destination's scheduled probes.
// Fetches on one Striped are serialized; pipeline congestion state
// warm-starts each subsequent fetch.
func (s *Striped) Fetch(ctx context.Context, off int64, dst []byte, fetch stripe.FetchFunc) (*stripe.Result, error) {
	// Segment RTTs feed the monitor whether or not Passive is set: striping
	// owns its telemetry, while Passive governs only the pooled single
	// connections' ambient ack samples.
	var observe func(*segment.Path, time.Duration)
	if m := s.dialer.opts.Monitor; m != nil {
		observe = m.Observe
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return stripe.Fetch(ctx, off, dst, s.pipes, stripe.Options{
		SegmentSize: s.opts.SegmentSize,
		Clock:       s.dialer.host.clock,
		Fetch:       fetch,
		Observe:     observe,
	})
}

// StripedStatus snapshots every pooled striped set's pipelines, keyed by the
// destination formatted as "remote|serverName" — the dialer-level liveness
// feed for CLI printouts. Pipeline snapshots are taken outside d.mu (lock
// order: st.mu is never acquired under d.mu).
func (d *Dialer) StripedStatus() map[string][]stripe.PipelineStatus {
	d.mu.Lock()
	sets := make(map[target]*Striped, len(d.stripes))
	for k, st := range d.stripes {
		sets[k] = st
	}
	d.mu.Unlock()
	if len(sets) == 0 {
		return nil
	}
	out := make(map[string][]stripe.PipelineStatus, len(sets))
	for k, st := range sets {
		out[k.String()] = st.Status()
	}
	return out
}

// DialStriped returns a pooled striped connection set to remote: up to
// opts.Width connections dialed concurrently over link-disjoint paths
// (DisjointRace over the selector's ranking), each wrapped in a stripe
// pipeline seeded from monitor telemetry when available (handshake latency
// otherwise). Unlike a racing Dial, every successful handshake is KEPT — the
// point is concurrent use, not picking one winner. At least one success is
// required; failed racers report Failure into the selector, and a fully
// failed dial returns the last error.
//
// The set is pooled per destination and reused while every member connection
// is live; a set with any dead or abandoned pipeline is evicted and re-dialed
// whole, restoring full stripe width. SetSelector and Invalidate evict
// striped sets exactly like single connections.
func (d *Dialer) DialStriped(ctx context.Context, remote addr.UDPAddr, serverName string, opts StripeOptions) (*Striped, error) {
	opts = opts.WithDefaults()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrDialerClosed
	}
	if serverName == "" {
		serverName = d.opts.ServerName
	}
	key := target{remote, serverName}
	epoch := d.epoch
	sel := d.sel
	pooled := d.stripes[key]
	d.mu.Unlock()

	if pooled != nil {
		// Liveness is checked outside d.mu, like StripedStatus: alive()
		// takes each pipeline's status lock.
		if pooled.epoch == epoch && pooled.alive() {
			return pooled, nil
		}
		d.mu.Lock()
		if d.stripes[key] == pooled {
			delete(d.stripes, key)
			d.untrackKeyLocked(trackKey{key, true})
		}
		d.mu.Unlock()
		pooled.closeConns()
	}

	monitor := d.opts.Monitor
	cands, _, err := d.host.candidates(remote.IA, sel, d.opts.Mode)
	if err != nil {
		return nil, err
	}
	racers := DisjointRace(cands, opts.Width)

	type dialResult struct {
		cand    Candidate
		conn    *squic.Conn
		latency time.Duration
		err     error
	}
	clock := d.host.clock
	results := make(chan dialResult, len(racers))
	for _, cand := range racers {
		go func(cand Candidate) {
			start := clock.Now()
			conn, err := d.dialPath(ctx, remote, cand, serverName)
			results <- dialResult{cand: cand, conn: conn, latency: clock.Since(start), err: err}
		}(cand)
	}
	var wins []dialResult
	var failed []*segment.Path
	var lastErr error
	for range racers {
		r := <-results
		switch {
		case r.err == nil:
			wins = append(wins, r)
		case abandoned(ctx, r.err):
			// Caller gave up; says nothing about the path.
		default:
			failed = append(failed, r.cand.Path)
			lastErr = r.err
		}
	}
	if ctx.Err() != nil {
		for _, w := range wins {
			w.conn.Close()
		}
		return nil, ctx.Err()
	}
	for _, p := range failed {
		sel.Report(p, Failure)
	}
	if len(wins) == 0 {
		if lastErr == nil {
			lastErr = errors.New("pan: no striped candidates")
		}
		return nil, lastErr
	}

	// Seed each pipeline's estimator: fresh monitor telemetry when the path
	// has samples, the just-measured handshake latency otherwise — either way
	// the first scheduling pass ranks on real data, not zeros.
	var stats []PathStat
	if monitor != nil {
		paths := make([]*segment.Path, len(wins))
		for i, w := range wins {
			paths[i] = w.cand.Path
		}
		stats = monitor.PathStats(paths)
	}
	st := &Striped{
		dialer:     d,
		remote:     remote,
		serverName: serverName,
		epoch:      epoch,
		opts:       opts,
		pipes:      make([]*stripe.Pipeline, len(wins)),
	}
	for i, w := range wins {
		seedRTT, seedDev := w.latency, w.latency/2
		if stats != nil && stats[i].Known && stats[i].Telemetry.Samples > 0 {
			seedRTT, seedDev = stats[i].Telemetry.RTT, stats[i].Telemetry.Dev
		}
		// Hold each connection to its disjoint path: a connection otherwise
		// follows the server's reply-path choices (mirror-following), and
		// the stripe's deliberately spread load would collapse onto one path.
		w.conn.SetReplyPath(w.cand.Path)
		st.pipes[i] = stripe.NewPipeline(w.conn, w.cand.Path, seedRTT, seedDev)
	}
	st.sel = Selection{Path: wins[0].cand.Path, Compliant: wins[0].cand.Compliant}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		st.closeConns()
		return nil, ErrDialerClosed
	}
	if d.epoch != epoch {
		// Selected under a superseded policy: never pool, re-dial fresh.
		d.mu.Unlock()
		st.closeConns()
		return d.DialStriped(ctx, remote, serverName, opts)
	}
	if prev := d.stripes[key]; prev != nil && prev != st {
		// A concurrent striped dial also completed; last pooled wins so the
		// loser's connections don't leak.
		defer prev.closeConns()
	}
	d.stripes[key] = st
	d.last[key] = st.sel
	if monitor != nil {
		if tk := (trackKey{key, true}); !d.tracked[tk] {
			d.tracked[tk] = true
			monitor.Track(remote, serverName)
		}
	}
	d.mu.Unlock()

	if monitor != nil && d.opts.Passive {
		for _, w := range wins {
			path := w.cand.Path
			w.conn.OnRTTSampleBatch(func(rtts []time.Duration) { monitor.ObserveBatch(path, rtts) })
		}
	}
	// Every kept connection is in service: report each path's handshake as a
	// live latency sample.
	for _, w := range wins {
		sel.Report(w.cand.Path, Outcome{Latency: w.latency})
	}
	return st, nil
}
