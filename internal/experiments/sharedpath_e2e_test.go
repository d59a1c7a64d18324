package experiments

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/segment"
)

// TestSharedPathsStayUnmodified: the combiner hands every caller the same
// path objects, so no layer may modify one. It deep-copies every cached
// answer of the demo world, then runs a racing, probing, passive, striping
// client against its steered servers, and requires every answer, the slice
// and each path, to be unchanged and still the one the cache serves.
func TestSharedPathsStayUnmodified(t *testing.T) {
	w, c, err := Demo(3, proxy.Config{
		RaceWidth: 2, ProbeInterval: time.Second, Passive: true,
		Stripe: &pan.StripeOptions{Width: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	t.Cleanup(c.Proxy.Close)

	type answer struct {
		src, dst addr.IA
		paths    []*segment.Path // as returned: shared with every caller
		ptrs     []*segment.Path // the slice's elements at snapshot time
		copies   []segment.Path  // deep copies of the paths
	}
	at := w.Clock.Now()
	var answers []answer
	for _, a := range w.Topo.ASes() {
		for _, b := range w.Topo.ASes() {
			paths := w.Combiner.Paths(a.IA, b.IA, at)
			ans := answer{src: a.IA, dst: b.IA, paths: paths, ptrs: slices.Clone(paths)}
			for _, p := range paths {
				ans.copies = append(ans.copies, segment.Path{
					Src: p.Src, Dst: p.Dst, Hops: slices.Clone(p.Hops), Meta: p.Meta,
				})
				cp := &ans.copies[len(ans.copies)-1]
				cp.Meta.ASes = slices.Clone(p.Meta.ASes)
				cp.Meta.Countries = slices.Clone(p.Meta.Countries)
			}
			answers = append(answers, ans)
		}
	}

	for _, origin := range []string{"www.scion.example", "www.proxied.example"} {
		pl, err := c.Browser.LoadPage(context.Background(), "http://"+origin+"/index.html")
		if err != nil {
			t.Fatal(err)
		}
		if pl.Indicator.String() != "all-scion" {
			t.Fatalf("%s: indicator = %v", origin, pl.Indicator)
		}
	}
	rec := httptest.NewRecorder()
	c.Proxy.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://www.scion.example"+BigResourcePath, nil))
	n, _ := io.Copy(io.Discard, rec.Result().Body)
	if n != BigResourceSize || len(c.Proxy.StripeStatus()) == 0 {
		t.Fatalf("big fetch: %d bytes, %d stripe sets; want %d bytes striped",
			n, len(c.Proxy.StripeStatus()), BigResourceSize)
	}
	w.Clock.Sleep(3 * time.Second) // a few probe rounds

	for _, ans := range answers {
		got := w.Combiner.Paths(ans.src, ans.dst, at)
		if len(got) > 0 && &got[0] != &ans.paths[0] {
			t.Fatalf("%s -> %s: the answer is no longer the cached one", ans.src, ans.dst)
		}
		if !slices.Equal(ans.paths, ans.ptrs) {
			t.Fatalf("%s -> %s: a caller rewrote the shared slice", ans.src, ans.dst)
		}
		for i, p := range ans.paths {
			cp := &ans.copies[i]
			if p.Src != cp.Src || p.Dst != cp.Dst || !reflect.DeepEqual(p.Hops, cp.Hops) || !reflect.DeepEqual(p.Meta, cp.Meta) {
				t.Fatalf("%s -> %s: a caller modified path %d: %s %+v, was %s %+v",
					ans.src, ans.dst, i, p, p.Meta, cp, cp.Meta)
			}
		}
	}
}
