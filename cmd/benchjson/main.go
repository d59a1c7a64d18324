// Command benchjson checks `go test -bench` output on stdin against timing
// gates and exits nonzero when one fails:
//
//	go test -bench=. -benchtime=1x -run NONE ./... | go run ./cmd/benchjson \
//	    -gate-max MonitorIngestContended=2000000 \
//	    -gate-rel "PacketTemplate/templated<=PacketTemplate/full*1.1" \
//	    -gate-min SQUICTransfer/MB/s=31
//
// Each flag is repeatable:
//   - -gate-max Name=N: the benchmark's ns/op is at most N.
//   - -gate-rel "A<=B*F": A's ns/op is at most B's times F. Both sides are
//     full names, sub-benchmark included.
//   - -gate-min Name/metric=X: the benchmark's custom metric is at least X.
//     The name ends at the first '/', since metric names such as MB/s
//     contain slashes themselves.
//
// A missing benchmark or metric fails its gate. Names drop the "Benchmark"
// prefix and the GOMAXPROCS suffix; benchmark names are unique across the
// repository's packages, so the package is not part of the key. A later line
// of the same name replaces an earlier one: a re-run at a longer -benchtime
// overrides the smoke run's sample.
//
// Allocation budgets are not gated here: each is a testing.AllocsPerRun
// test beside its benchmark, so the plain test run enforces it.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark's ns/op and custom metrics (unit → value).
type result struct {
	ns      float64
	metrics map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

// run parses the flags and the benchmark output, applies every gate, and
// returns the exit status: 0 when all pass, 1 when a gate fails or the
// input holds no benchmark, 2 on bad flags.
func run(args []string, in io.Reader, stderr io.Writer) int {
	var checks []func(map[string]result) error // one per gate flag
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Func("gate-max", "ns/op ceiling Name=N (repeatable)", func(v string) error {
		name, ceiling, err := cutLimit(v, "=")
		if err != nil {
			return err
		}
		checks = append(checks, func(rs map[string]result) error {
			r, ok := rs[name]
			if !ok {
				return fmt.Errorf("gate-max %s: benchmark missing from input", name)
			}
			if r.ns > ceiling {
				return fmt.Errorf("gate-max %s: %g ns/op exceeds ceiling %g", name, r.ns, ceiling)
			}
			return nil
		})
		return nil
	})
	fs.Func("gate-rel", `relative ns/op gate "A<=B*F" (repeatable)`, func(v string) error {
		a, rest, ok := strings.Cut(v, "<=")
		b, factor, err := cutLimit(rest, "*")
		if !ok || a == "" || err != nil || factor <= 0 {
			return fmt.Errorf(`want "A<=B*F", got %q`, v)
		}
		checks = append(checks, func(rs map[string]result) error {
			ra, okA := rs[a]
			rb, okB := rs[b]
			if !okA || !okB {
				return fmt.Errorf("gate-rel %s: benchmark %s or %s missing from input", v, a, b)
			}
			if limit := rb.ns * factor; ra.ns > limit {
				return fmt.Errorf("gate-rel %s: %g ns/op exceeds %s*%g = %g", a, ra.ns, b, factor, limit)
			}
			return nil
		})
		return nil
	})
	fs.Func("gate-min", "metric floor Name/metric=X (repeatable)", func(v string) error {
		spec, floor, err := cutLimit(v, "=")
		name, metric, ok := strings.Cut(spec, "/")
		if err != nil || !ok || metric == "" {
			return fmt.Errorf("want Name/metric=X, got %q", v)
		}
		checks = append(checks, func(rs map[string]result) error {
			r, ok := rs[name]
			if !ok {
				return fmt.Errorf("gate-min %s: benchmark missing from input", name)
			}
			got, ok := r.metrics[metric]
			if !ok {
				return fmt.Errorf("gate-min %s: no %s metric in output", name, metric)
			}
			if got < floor {
				return fmt.Errorf("gate-min %s: %g %s below floor %g", name, got, metric, floor)
			}
			return nil
		})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	results, err := parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	status := 0
	for _, c := range checks {
		if err := c(results); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			status = 1
		}
	}
	return status
}

// cutLimit splits "spec<sep>number", the shape of every gate flag.
func cutLimit(v, sep string) (string, float64, error) {
	spec, lim, ok := strings.Cut(v, sep)
	if !ok || spec == "" {
		return "", 0, fmt.Errorf("want spec%snumber, got %q", sep, v)
	}
	n, err := strconv.ParseFloat(lim, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad number in %q: %v", v, err)
	}
	return spec, n, nil
}

// parse reads `go test -bench` output, keyed by benchmark name.
func parse(in io.Reader) (map[string]result, error) {
	results := map[string]result{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// BenchmarkName-8  N  1234 ns/op  [value unit]...
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue // goos/goarch/pkg/PASS lines identify the runner only
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // the GOMAXPROCS suffix
			}
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		r := result{ns: ns, metrics: map[string]float64{}}
		for i := 4; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				r.metrics[fields[i+1]] = v
			}
		}
		results[name] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stdin: %v", err)
	}
	if len(results) == 0 {
		return nil, errors.New("no benchmark lines on stdin")
	}
	return results, nil
}
