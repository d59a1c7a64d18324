package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// shortSpec is a workload's spec with a short warm-up, for tests.
func shortSpec(name string) *spec {
	s := *specs[name]
	s.warmupUnits = 1
	return &s
}

// shortOps is how many timed ops a test run of each workload makes.
var shortOps = map[string]int{"browse": 16, "geofence": 16, "bulk": 6}

func runShort(t *testing.T, s *spec, seed int64, traced bool) *runResult {
	t.Helper()
	r, err := run(s, runConfig{seed: seed, ops: shortOps[s.name], setups: 1, traced: traced})
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.name, seed, err)
	}
	if _, failed, first := r.failures(); failed > 0 || len(r.faults) > 0 {
		t.Fatalf("%s seed %d: %d failed ops (first: %s), faults %v", s.name, seed, failed, first, r.faults)
	}
	return r
}

// virtualMetrics are the end-to-end metrics measured on the simulation
// clock.
var virtualMetrics = []string{"virt_ms_p50", "virt_ms_p90", "goodput_virt_mbps"}

// TestSameSeedRepeats checks that two runs of one seed give identical op
// outcomes and virtual times, and that a traced run gives the same ones:
// the wrappers must not change the program. It fails intermittently while
// the clock advancer lets virtual time drift by nanoseconds between runs
// (ROADMAP item 1; see METRICS.md).
func TestSameSeedRepeats(t *testing.T) {
	for _, name := range []string{"browse", "geofence", "bulk"} {
		t.Run(name, func(t *testing.T) {
			s := shortSpec(name)
			a := runShort(t, s, 7, false)
			b := runShort(t, s, 7, false)
			c := runShort(t, s, 7, true)
			for _, other := range []*runResult{b, c} {
				if d := diffOps(a, other); d.outcome != "" || d.virtOps > 0 {
					t.Fatalf("runs of one seed differ: %s %s (%d ops differ in virtual time)", d.outcome, d.firstVirt, d.virtOps)
				}
				ma, mo := endToEnd(s, a), endToEnd(s, other)
				for _, k := range virtualMetrics {
					if ma[k].Value != mo[k].Value {
						t.Errorf("%s: %v vs %v", k, ma[k].Value, mo[k].Value)
					}
				}
			}
			if c.layers == nil {
				t.Fatal("traced run reported no per-layer metrics")
			}
		})
	}
}

// TestSeedChangesSequence checks that the seed drives the op sequence: the
// kinds of page loads, the sizes of transfers.
func TestSeedChangesSequence(t *testing.T) {
	for _, name := range []string{"browse", "geofence", "bulk"} {
		t.Run(name, func(t *testing.T) {
			s := shortSpec(name)
			kinds := func(r *runResult) string {
				var b strings.Builder
				for _, op := range r.all() {
					fmt.Fprintf(&b, "%s:%d ", op.kind, op.bytes)
				}
				return b.String()
			}
			if a, b := kinds(runShort(t, s, 1, false)), kinds(runShort(t, s, 2, false)); a == b {
				t.Fatalf("seeds 1 and 2 gave the same op sequence: %s", a)
			}
		})
	}
}

// TestCorruptBodyCounted injects a flipped byte into one origin response and
// checks that the op carrying it is counted as failed.
func TestCorruptBodyCounted(t *testing.T) {
	cases := map[string]func(r *http.Request) bool{
		// A subresource fetched over SCION, through the reverse proxy in
		// front of remote.example.
		"browse": func(r *http.Request) bool {
			return r.URL.Path == "/static/res-3" && strings.HasPrefix(r.RemoteAddr, "rp-remote:")
		},
		// One segment of a striped download.
		"bulk": func(r *http.Request) bool {
			return r.Method == http.MethodGet && r.Header.Get("Range") != ""
		},
	}
	for name, match := range cases {
		t.Run(name, func(t *testing.T) {
			s := shortSpec(name)
			build := s.build
			s.build = func(seed int64, tr *tracer) (workload, error) {
				wl, err := build(seed, tr)
				if err != nil {
					return nil, err
				}
				var hit atomic.Bool
				wl.env().corrupt = func(r *http.Request) bool {
					return match(r) && hit.CompareAndSwap(false, true)
				}
				return wl, nil
			}
			r, err := run(s, runConfig{seed: 3, ops: shortOps[name], setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			attempted, failed, first := r.failures()
			if failed != 1 {
				t.Fatalf("%d of %d ops failed (first: %s), want exactly the corrupted one", failed, attempted, first)
			}
			t.Logf("detected: %s", first)
		})
	}
}

// TestTracedLayers checks the traced run's per-layer report.
func TestTracedLayers(t *testing.T) {
	s := shortSpec("geofence")
	r := runShort(t, s, 5, true)
	var share float64
	for _, l := range cpuLayers {
		v, ok := r.layers["cpu_share."+l]
		if !ok {
			t.Errorf("missing cpu_share.%s", l)
		}
		share += v
	}
	if r.layers["trace.profile_samples"] > 0 && math.Abs(share-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", share)
	}
	for _, k := range []string{"proxy.req_per_op", "pan.rank_per_op", "pan.ingest_applied_per_op", "netsim.pkts_per_op"} {
		if r.layers[k] <= 0 {
			t.Errorf("%s = %v, want > 0 on geofence", k, r.layers[k])
		}
	}
	if r.teardown.goroutinesDelta != 0 || len(r.teardown.violations) > 0 {
		t.Logf("teardown: %+v", r.teardown)
	}
}

func TestCovered(t *testing.T) {
	got := covered([][2]int64{{5, 10}, {0, 3}, {8, 20}, {2, 4}}, 1, 15)
	if got != 3+10 { // [1,4] and [5,15]
		t.Fatalf("covered = %d, want 13", got)
	}
}
