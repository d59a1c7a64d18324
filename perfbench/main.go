// Command perfbench is the repository's benchmark. It builds the simulated
// worlds of the paper's experiments through the program's public
// constructors, runs one closed-loop workload for a fixed host time, checks
// every op, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	go run . --workload browse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same seed twice, untraced and then traced over the same ops, checks
// that both runs produced identical op outcomes and virtual times, and
// reports the per-layer metrics; the span log goes to --trace-dir.
//
// Every workload runs at GOMAXPROCS=1: with more Ps the simulation clock's
// yield-counting quiescence check lets virtual timeouts fire spuriously,
// and virtual times stop repeating (see METRICS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times each run builds its world to time setup_s.
const setups = 9

func main() {
	workloadName := flag.String("workload", "", "workload: browse, geofence or bulk")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds the timed phase lasts at least")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build/perfbench", "directory for the traced run's span log")
	flag.Parse()

	s, ok := specs[*workloadName]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload browse|geofence|bulk and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)

	out, err := bench(s, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// bench runs one workload and assembles its result.
func bench(s *spec, seed int64, seconds float64, traced bool, traceDir string) (*result, error) {
	base, err := run(s, runConfig{seed: seed, seconds: seconds, setups: setups})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, describe(s, base))
	out := outcome(base)
	if !traced {
		out.Metrics = endToEnd(s, base)
		return out, nil
	}

	tr, err := run(s, runConfig{seed: seed, ops: len(base.ops), setups: 1, traced: true})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "traced "+describe(s, tr))
	// The wrappers must not change what the program does: every op's
	// kind, verified bytes and outcome must match. Virtual times are
	// compared and reported, not gated: the clock advancer moves single ops
	// by nanoseconds between any two runs of one seed (see METRICS.md).
	d := diffOps(base, tr)
	if d.outcome != "" {
		fmt.Fprintf(os.Stderr, "perfbench: traced run diverged from the untraced run: %s\n", d.outcome)
		out.Correct = false
	}
	if d.virtOps > 0 {
		fmt.Fprintf(os.Stderr, "traced run: %d ops differ in virtual time from the untraced run, by at most %.3g%% (first: %s)\n",
			d.virtOps, 100*d.virtMaxRel, d.firstVirt)
	}
	tr.layers["trace.virt_diverged_ops"] = float64(d.virtOps)
	tr.layers["trace.virt_max_rel_diff"] = d.virtMaxRel
	path := spansFile(traceDir, s.name, seed)
	if err := tr.spans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	tr.layers["trace.cpu_ms_per_op"] = tr.cpuPerOp()
	tr.layers["trace.overhead_frac"] = tr.cpuPerOp()/base.cpuPerOp() - 1
	out.Metrics = make(map[string]metric, len(tr.layers))
	for k, v := range tr.layers {
		out.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
	}
	return out, nil
}

// outcome fills correct, attempted and failed from a run's checks.
func outcome(r *runResult) *result {
	attempted, failed, _ := r.failures()
	out := &result{Attempted: attempted, Failed: failed, Correct: failed == 0 && len(r.faults) == 0}
	for _, f := range r.faults {
		fmt.Fprintf(os.Stderr, "perfbench: check failed outside any op: %s\n", f)
	}
	td := r.teardown
	fmt.Fprintf(os.Stderr, "teardown: %d pending timers, %+d goroutines\n", td.pendingTimers, td.goroutinesDelta)
	for _, v := range td.violations {
		fmt.Fprintf(os.Stderr, "teardown VIOLATION: %s\n", v)
	}
	return out
}

// opDiff compares two runs of one seed op by op.
type opDiff struct {
	outcome    string  // first op whose kind, bytes or outcome differ
	virtOps    int     // ops whose virtual time differs
	virtMaxRel float64 // largest relative virtual-time difference
	firstVirt  string
}

func diffOps(a, b *runResult) opDiff {
	var d opDiff
	x, y := a.all(), b.all()
	if len(a.warm) != len(b.warm) || len(x) != len(y) {
		d.outcome = fmt.Sprintf("%d+%d ops vs %d+%d", len(a.warm), len(a.ops), len(b.warm), len(b.ops))
		return d
	}
	for i := range x {
		p, q := x[i], y[i]
		if p.kind != q.kind || p.bytes != q.bytes || p.outcome != q.outcome {
			if d.outcome == "" {
				d.outcome = fmt.Sprintf("op %d: %s vs %s", i, p.signature(), q.signature())
			}
			continue
		}
		if p.virt != q.virt {
			if d.virtOps == 0 {
				d.firstVirt = fmt.Sprintf("op %d: %s vs %s", i, p.signature(), q.signature())
			}
			d.virtOps++
			d.virtMaxRel = max(d.virtMaxRel, math.Abs(float64(p.virt-q.virt))/float64(p.virt))
		}
	}
	return d
}

// layerUnit is a per-layer metric's unit, from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "cpu_share."), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rel_diff"),
		name == "netsim.wire_overhead":
		return "ratio"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_per_op"):
		return "ms"
	case strings.HasSuffix(name, "_kib_per_op"):
		return "KiB"
	}
	return "count"
}
