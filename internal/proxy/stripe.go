package proxy

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/pan/stripe"
	"tango/internal/shttp"
)

// StripeStatus snapshots every pooled striped connection set's pipelines,
// keyed by destination — the liveness feed behind the CLI's per-path stripe
// printouts.
func (p *Proxy) StripeStatus() map[string][]stripe.PipelineStatus {
	return p.dialer.StripedStatus()
}

// stripeEligible reports whether a request may attempt a striped download:
// a bodyless GET with no client-specified range (a client Range must be
// honored verbatim, not re-segmented) while striping is enabled.
func stripeEligible(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		r.Header.Get("Range") == "" &&
		r.ContentLength == 0 && len(r.TransferEncoding) == 0
}

// parseContentRange parses a "bytes first-last/total" Content-Range value.
func parseContentRange(v string) (first, last, total int64, err error) {
	if _, err = fmt.Sscanf(v, "bytes %d-%d/%d", &first, &last, &total); err != nil {
		return 0, 0, 0, fmt.Errorf("proxy: malformed Content-Range %q: %w", v, err)
	}
	if first < 0 || last < first || total <= last {
		return 0, 0, 0, fmt.Errorf("proxy: inconsistent Content-Range %q", v)
	}
	return first, last, total, nil
}

// stripeFetch builds the stripe.FetchFunc for one striped response: each
// segment becomes a Range GET issued over the assigned pipeline's OWN
// connection (shttp.RoundTripConn bypasses the per-authority pool — the
// stripe scheduler, not the pool, picks the connection).
func stripeFetch(tmpl *http.Request) stripe.FetchFunc {
	return func(ctx context.Context, pl *stripe.Pipeline, seg stripe.Segment, dst []byte) (int, error) {
		req := tmpl.Clone(ctx)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", seg.Offset, seg.Offset+int64(seg.Length)-1))
		resp, err := shttp.RoundTripConn(ctx, pl.Conn(), req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusPartialContent {
			return 0, fmt.Errorf("proxy: stripe segment got status %d", resp.StatusCode)
		}
		// A short or overlong body is a protocol error the scheduler detects
		// via the length mismatch.
		return readInto(resp.Body, dst)
	}
}

// annotate writes the SCION annotation headers for a selection.
func (p *Proxy) annotate(w http.ResponseWriter, sel pan.Selection) {
	h := w.Header()
	h[HeaderVia] = viaValues[ViaSCION]
	if sel.Path != nil {
		h.Set(HeaderPath, sel.Path.Fingerprint())
	}
	h[HeaderCompliant] = compliantValues[sel.Compliant]
}

// serveStriped attempts a striped download: a Range probe for the first
// MinStripeBytes reveals (via the 206's Content-Range) the total response
// size without an extra round trip — the probe's bytes are the body prefix
// either way. Large remainders are striped over a DialStriped connection
// set; an origin that answers 200 (no range support) or a resource smaller
// than the threshold is relayed directly, and a claimed size above
// maxStripedBody is not striped. handled=false means the caller should run
// the normal (un-striped) round trip — nothing has been written to the
// client, and the probe was a GET, so re-sending is safe.
func (p *Proxy) serveStriped(w http.ResponseWriter, outReq *http.Request, remote addr.UDPAddr, host string, start time.Time, opts pan.StripeOptions) (handled bool) {
	clock := p.cfg.Host.Clock()
	ctx := outReq.Context()

	// Pre-dial the striped connection set concurrently with the probe: the
	// disjoint-race handshakes overlap the probe's round trip instead of
	// serializing after it. The set is pooled either way, so a probe that
	// disqualifies striping (small resource, no range support) just leaves a
	// warm set behind for the next request.
	type dialReply struct {
		striped *pan.Striped
		err     error
	}
	dialCh := make(chan dialReply, 1)
	go func() {
		s, err := p.dialer.DialStriped(ctx, remote, hostOnly(host), opts)
		dialCh <- dialReply{s, err}
	}()

	probeReq := outReq.Clone(ctx)
	probeReq.Header.Set("Range", fmt.Sprintf("bytes=0-%d", opts.MinStripeBytes-1))
	resp, err := p.scion.RoundTrip(probeReq)
	if err != nil {
		return false // the normal path owns retry and fallback semantics
	}
	sel, _ := p.dialer.Cached(remote, hostOnly(host))

	if resp.StatusCode != http.StatusPartialContent {
		// No range support (200: this IS the full response) or an error
		// status: relay as-is — a complete answer either way.
		p.annotate(w, sel)
		n := copyResponse(w, resp)
		p.stats.Record(RequestRecord{
			Host: host, Via: ViaSCION, Compliant: sel.Compliant, Path: fingerprintOf(sel),
			Duration: clock.Since(start), Bytes: n, Status: resp.StatusCode,
		})
		return true
	}

	first, last, total, crErr := parseContentRange(resp.Header.Get("Content-Range"))
	if crErr != nil || first != 0 || last >= opts.MinStripeBytes || total > maxStripedBody {
		resp.Body.Close()
		return false // unusable 206, more than asked for, or too large; re-request un-striped
	}
	// Every byte lands in its place in body: the probe's prefix, then the
	// striped segments or the fallback's tail.
	body := make([]byte, total)
	prefix := last + 1
	n, err := readInto(resp.Body, body[:prefix])
	resp.Body.Close()
	if err != nil || int64(n) != prefix {
		return false
	}

	pathBytes := map[string]int64{}
	if sel.Path != nil {
		pathBytes[sel.Path.Fingerprint()] += prefix
	}
	usedStripe, reassigned := false, 0
	if prefix < total {
		var res *stripe.Result
		dial := <-dialCh
		err = dial.err
		if err == nil {
			res, err = dial.striped.Fetch(ctx, prefix, body[prefix:], stripeFetch(outReq))
		}
		if err == nil {
			usedStripe, reassigned = true, res.Reassigned
			for fp, n := range res.PerPath {
				pathBytes[fp] += n
			}
		} else if terr := p.fetchRangeTail(outReq, prefix, body[prefix:]); terr != nil {
			// Striping failed (no disjoint set, mid-transfer collapse of
			// every pipeline, ...), and so did the recovery: ONE range
			// request for the remainder over the ordinary pooled transport.
			http.Error(w, fmt.Sprintf("proxy: striped fetch: %v", err), http.StatusBadGateway)
			p.stats.Record(RequestRecord{Host: host, Via: ViaError, Status: http.StatusBadGateway})
			return true
		} else if sel.Path != nil {
			pathBytes[sel.Path.Fingerprint()] += total - prefix
		}
	}

	// Reassemble as one 200: the client asked for the whole resource and
	// must not see the proxy's internal segmentation.
	for k, vv := range resp.Header {
		if k == "Content-Range" || k == "Content-Length" {
			continue
		}
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	p.annotate(w, sel)
	w.Header().Set("Content-Length", fmt.Sprintf("%d", total))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	p.stats.Record(RequestRecord{
		Host: host, Via: ViaSCION, Compliant: sel.Compliant, Path: fingerprintOf(sel),
		Duration: clock.Since(start), Bytes: total, Status: http.StatusOK,
		// Only responses whose remainder actually travelled over the striped
		// set count as striped — a probe 206 that covered the whole resource
		// (or a single-range recovery) is an ordinary transfer.
		Striped: usedStripe, PathBytes: pathBytes, Reassigned: reassigned,
	})
	return true
}

// fetchRangeTail reads [off, off+len(dst)) into dst with a single Range GET
// over the pooled transport — the striping failure path's last resort.
func (p *Proxy) fetchRangeTail(outReq *http.Request, off int64, dst []byte) error {
	req := outReq.Clone(outReq.Context())
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(dst))-1))
	resp, err := p.scion.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		return fmt.Errorf("proxy: range tail got status %d", resp.StatusCode)
	}
	n, err := readInto(resp.Body, dst)
	if err == nil && n != len(dst) {
		err = fmt.Errorf("proxy: range tail returned %d bytes, want %d", n, len(dst))
	}
	return err
}
