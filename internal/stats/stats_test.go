package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Mean != 3 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Min != 42 || s.Max != 42 || s.Median != 42 || s.Stddev != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestSummaryInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64() * 100
		}
		s := Summarize(sample)
		ordered := s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
		meanInRange := s.Mean >= s.Min && s.Mean <= s.Max
		return ordered && meanInRange && s.N == n && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileAgainstSortedSample(t *testing.T) {
	sample := make([]float64, 101)
	for i := range sample {
		sample[i] = float64(i)
	}
	s := Summarize(sample)
	if s.Q1 != 25 || s.Median != 50 || s.Q3 != 75 {
		t.Fatalf("quartiles %+v", s)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond})
	if s.Median != 20 {
		t.Fatalf("median = %v ms", s.Median)
	}
}

func TestStddev(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Stddev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestRenderBoxPlot(t *testing.T) {
	series := []Series{
		{Label: "fast", Summary: Summarize([]float64{10, 12, 14, 16, 18})},
		{Label: "slow", Summary: Summarize([]float64{90, 95, 100, 105, 110})},
	}
	out := RenderBoxPlot("test plot", "ms", series, 80)
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "[") {
		t.Fatalf("render missing box glyphs:\n%s", out)
	}
	// The fast box must sit left of the slow box.
	lines := strings.Split(out, "\n")
	var fastLine, slowLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "fast") && strings.Contains(l, "#") {
			fastLine = l
		}
		if strings.HasPrefix(l, "slow") && strings.Contains(l, "#") {
			slowLine = l
		}
	}
	if fastLine == "" || slowLine == "" {
		t.Fatalf("box rows missing:\n%s", out)
	}
	if strings.Index(fastLine, "#") >= strings.Index(slowLine, "#") {
		t.Fatal("fast median not left of slow median")
	}
}

func TestRenderBoxPlotDegenerate(t *testing.T) {
	// Identical values must not divide by zero.
	out := RenderBoxPlot("flat", "ms", []Series{{Label: "x", Summary: Summarize([]float64{5, 5, 5})}}, 60)
	if !strings.Contains(out, "x") {
		t.Fatal("flat render failed")
	}
	if RenderBoxPlot("empty", "ms", nil, 60) == "" {
		t.Fatal("empty render failed")
	}
}

func TestSummariesSortStable(t *testing.T) {
	// quantile requires sorted input internally; cross-check with a naive
	// percentile for a random sample.
	rng := rand.New(rand.NewSource(7))
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = rng.Float64() * 1000
	}
	s := Summarize(sample)
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if s.Median < sorted[498] || s.Median > sorted[501] {
		t.Fatalf("median %v outside naive band [%v, %v]", s.Median, sorted[498], sorted[501])
	}
}

// BenchmarkStatsSummarize measures five-number summaries on a 1000-sample
// distribution.
func BenchmarkStatsSummarize(b *testing.B) {
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i * 7 % 997)
	}
	for range b.N {
		if Summarize(sample).N != 1000 {
			b.Fatal("bad summary")
		}
	}
}
