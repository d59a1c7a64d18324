package proxy

import (
	"sync"
	"testing"
	"time"
)

func TestStatsAggregation(t *testing.T) {
	s := NewStats()
	s.Record(RequestRecord{Host: "a.test", Via: ViaSCION, Path: "fp1", Compliant: true, Duration: 10 * time.Millisecond, Bytes: 100, Status: 200})
	s.Record(RequestRecord{Host: "a.test", Via: ViaSCION, Path: "fp1", Compliant: true, Duration: 20 * time.Millisecond, Bytes: 200, Status: 200})
	s.Record(RequestRecord{Host: "a.test", Via: ViaIP, Duration: 5 * time.Millisecond, Bytes: 50, Status: 200})
	s.Record(RequestRecord{Host: "b.test", Via: ViaSCION, Path: "fp2", Compliant: false, Bytes: 10, Status: 200})
	s.Record(RequestRecord{Host: "b.test", Via: ViaError})

	snap := s.Snapshot()
	if snap.Total != 5 {
		t.Fatalf("total = %d", snap.Total)
	}
	if snap.ByVia[ViaSCION] != 3 || snap.ByVia[ViaIP] != 1 || snap.ByVia[ViaError] != 1 {
		t.Fatalf("byVia %v", snap.ByVia)
	}
	if snap.ByHost["a.test"][ViaSCION] != 2 || snap.ByHost["b.test"][ViaError] != 1 {
		t.Fatalf("byHost %v", snap.ByHost)
	}
	if len(snap.Paths) != 2 {
		t.Fatalf("paths %v", snap.Paths)
	}
	// Sorted by requests descending.
	if snap.Paths[0].Fingerprint != "fp1" || snap.Paths[0].Requests != 2 ||
		snap.Paths[0].Bytes != 300 || snap.Paths[0].TotalTime != 30*time.Millisecond {
		t.Fatalf("fp1 usage %+v", snap.Paths[0])
	}
	if snap.Paths[0].Compliant != true || snap.Paths[1].Compliant != false {
		t.Fatal("compliance aggregation wrong")
	}
	if len(s.Records()) != 5 {
		t.Fatal("records lost")
	}
}

func TestStatsComplianceLatches(t *testing.T) {
	s := NewStats()
	s.Record(RequestRecord{Host: "a", Via: ViaSCION, Path: "fp", Compliant: true})
	s.Record(RequestRecord{Host: "a", Via: ViaSCION, Path: "fp", Compliant: false})
	s.Record(RequestRecord{Host: "a", Via: ViaSCION, Path: "fp", Compliant: true})
	snap := s.Snapshot()
	if snap.Paths[0].Compliant {
		t.Fatal("one non-compliant use must latch the path as non-compliant")
	}
}

func TestStatsSnapshotIsolation(t *testing.T) {
	s := NewStats()
	s.Record(RequestRecord{Host: "a", Via: ViaIP})
	snap := s.Snapshot()
	snap.ByVia[ViaIP] = 99
	snap.ByHost["a"][ViaIP] = 99
	if got := s.Snapshot(); got.ByVia[ViaIP] != 1 || got.ByHost["a"][ViaIP] != 1 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Record(RequestRecord{Host: "h", Via: ViaSCION, Path: "fp"})
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s.Snapshot().Total != 800 {
		t.Fatalf("total = %d", s.Snapshot().Total)
	}
}

func TestHostPortHelpers(t *testing.T) {
	if hostOnly("example.test:8080") != "example.test" || hostOnly("example.test") != "example.test" {
		t.Fatal("hostOnly wrong")
	}
	if portOf("x:8080", 80) != 8080 || portOf("x", 443) != 443 || portOf("x:bad", 7) != 7 {
		t.Fatal("portOf wrong")
	}
}

func TestSnapshotIncludesPathHealth(t *testing.T) {
	s := NewStats()
	if h := s.Snapshot().Health; h != nil {
		t.Fatalf("health without a source = %+v", h)
	}
	s.SetHealthSource(func() []PathHealth {
		return []PathHealth{
			{Fingerprint: "fp-a", RTT: 42 * time.Millisecond},
			{Fingerprint: "fp-b", Down: true},
		}
	})
	snap := s.Snapshot()
	if len(snap.Health) != 2 {
		t.Fatalf("health = %+v", snap.Health)
	}
	if snap.Health[0].Fingerprint != "fp-a" || snap.Health[0].RTT != 42*time.Millisecond || snap.Health[0].Down {
		t.Fatalf("health[0] = %+v", snap.Health[0])
	}
	if !snap.Health[1].Down {
		t.Fatalf("health[1] = %+v", snap.Health[1])
	}
}

func TestSnapshotIncludesSampleSplit(t *testing.T) {
	s := NewStats()
	if got := s.Snapshot().Samples; got != nil {
		t.Fatalf("samples without a source = %+v", got)
	}
	s.SetSampleSource(func() map[string]SampleSplit {
		return map[string]SampleSplit{
			"busy.example": {Passive: 120, Probes: 2},
			"idle.example": {Passive: 0, Probes: 17},
		}
	})
	snap := s.Snapshot()
	if len(snap.Samples) != 2 {
		t.Fatalf("samples = %+v", snap.Samples)
	}
	if got := snap.Samples["busy.example"]; got.Passive != 120 || got.Probes != 2 {
		t.Fatalf("busy split = %+v", got)
	}
	if got := snap.Samples["idle.example"]; got.Passive != 0 || got.Probes != 17 {
		t.Fatalf("idle split = %+v", got)
	}
}

func TestStatsRecordsTTFB(t *testing.T) {
	s := NewStats()
	s.Record(RequestRecord{Host: "a", Via: ViaSCION, Path: "fp", TTFB: 30 * time.Millisecond, Duration: 90 * time.Millisecond})
	recs := s.Records()
	if len(recs) != 1 || recs[0].TTFB != 30*time.Millisecond {
		t.Fatalf("records = %+v, want one with 30ms TTFB", recs)
	}
}
