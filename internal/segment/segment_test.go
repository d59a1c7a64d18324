package segment

import (
	"testing"
	"testing/quick"
	"time"

	"tango/internal/addr"
	"tango/internal/cppki"
)

var (
	t0     = time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)
	t1     = t0.Add(24 * time.Hour)
	during = t0.Add(time.Hour)
	ia110  = addr.MustIA(1, 0xff00_0000_0110)
	ia111  = addr.MustIA(1, 0xff00_0000_0111)
	ia112  = addr.MustIA(1, 0xff00_0000_0112)
)

// pki builds an ISD-1 authority with signers for the three test ASes and a
// store trusting them.
func pki(t testing.TB) (map[addr.IA]*cppki.Signer, *cppki.Store) {
	t.Helper()
	auth, err := cppki.NewAuthority(1, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	store := cppki.NewStore(auth.TRC())
	signers := make(map[addr.IA]*cppki.Signer)
	for _, ia := range []addr.IA{ia110, ia111, ia112} {
		s, err := auth.Issue(ia, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddCertificate(s.Certificate(), during); err != nil {
			t.Fatal(err)
		}
		signers[ia] = s
	}
	return signers, store
}

// buildSegment originates at 110 and extends through 111 to 112.
func buildSegment(t testing.TB, signers map[addr.IA]*cppki.Signer) *Segment {
	t.Helper()
	key := []byte("forwarding-key-110")
	seg := NewSegment(t0, 7, ia110)
	hf := HopField{ConsIngress: 0, ConsEgress: 1, ExpTime: t1}
	hf.MAC = ComputeMAC(key, seg.Info, hf)
	seg, err := seg.Extend(ASEntry{
		Local: ia110, Next: ia111, HopField: hf,
		Static: StaticInfo{InternalMTU: 1472},
	}, signers[ia110])
	if err != nil {
		t.Fatal(err)
	}
	hf2 := HopField{ConsIngress: 2, ConsEgress: 3, ExpTime: t1}
	hf2.MAC = ComputeMAC([]byte("forwarding-key-111"), seg.Info, hf2)
	seg, err = seg.Extend(ASEntry{
		Local: ia111, Next: ia112, HopField: hf2,
		Static: StaticInfo{IngressLatency: 3 * time.Millisecond, IngressMTU: 1400, InternalMTU: 1472},
	}, signers[ia111])
	if err != nil {
		t.Fatal(err)
	}
	hf3 := HopField{ConsIngress: 4, ConsEgress: 0, ExpTime: t1}
	hf3.MAC = ComputeMAC([]byte("forwarding-key-112"), seg.Info, hf3)
	seg, err = seg.Extend(ASEntry{
		Local: ia112, HopField: hf3,
		Static: StaticInfo{IngressLatency: 2 * time.Millisecond, IngressMTU: 1400, InternalMTU: 1472},
	}, signers[ia112])
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSegmentVerify(t *testing.T) {
	signers, store := pki(t)
	seg := buildSegment(t, signers)
	if err := seg.Verify(store, during); err != nil {
		t.Fatal(err)
	}
	if seg.FirstIA() != ia110 || seg.LastIA() != ia112 {
		t.Fatalf("endpoints %s..%s", seg.FirstIA(), seg.LastIA())
	}
}

func TestSegmentVerifyDetectsMetadataTampering(t *testing.T) {
	signers, store := pki(t)
	seg := buildSegment(t, signers)
	// An on-path attacker greenwashes AS 111's carbon intensity.
	seg.Entries[1].Static.CarbonIntensity = 1
	if err := seg.Verify(store, during); err == nil {
		t.Fatal("tampered metadata verified")
	}
}

func TestSegmentVerifyDetectsHopTampering(t *testing.T) {
	signers, store := pki(t)
	seg := buildSegment(t, signers)
	seg.Entries[0].HopField.ConsEgress = 9
	if err := seg.Verify(store, during); err == nil {
		t.Fatal("tampered hop field verified")
	}
}

func TestSegmentVerifyDetectsTruncationThenExtension(t *testing.T) {
	signers, store := pki(t)
	seg := buildSegment(t, signers)
	// Splice: drop the middle entry, keeping the (individually valid)
	// signatures of the rest. The chained hash must catch this.
	spliced := &Segment{Info: seg.Info, Entries: []ASEntry{seg.Entries[0], seg.Entries[2]}}
	spliced.Entries[0].Next = ia112
	if err := spliced.Verify(store, during); err == nil {
		t.Fatal("spliced segment verified")
	}
}

func TestSegmentVerifyRejectsBrokenNextChain(t *testing.T) {
	signers, store := pki(t)
	seg := buildSegment(t, signers)
	seg.Entries[0].Next = ia112
	if err := seg.Verify(store, during); err == nil {
		t.Fatal("broken chain verified")
	}
}

func TestSegmentVerifyEmpty(t *testing.T) {
	_, store := pki(t)
	seg := NewSegment(t0, 1, ia110)
	if err := seg.Verify(store, during); err == nil {
		t.Fatal("empty segment verified")
	}
}

func TestExtendRejectsLoop(t *testing.T) {
	signers, _ := pki(t)
	seg := NewSegment(t0, 1, ia110)
	seg, err := seg.Extend(ASEntry{Local: ia110, Next: ia111}, signers[ia110])
	if err != nil {
		t.Fatal(err)
	}
	seg, err = seg.Extend(ASEntry{Local: ia111, Next: ia110}, signers[ia111])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Extend(ASEntry{Local: ia110}, signers[ia110]); err == nil {
		t.Fatal("loop extension accepted")
	}
}

func TestExtendRejectsWrongSigner(t *testing.T) {
	signers, _ := pki(t)
	seg := NewSegment(t0, 1, ia110)
	if _, err := seg.Extend(ASEntry{Local: ia110, Next: ia111}, signers[ia111]); err == nil {
		t.Fatal("wrong signer accepted")
	}
}

func TestExtendRejectsChainMismatch(t *testing.T) {
	signers, _ := pki(t)
	seg := NewSegment(t0, 1, ia110)
	seg, err := seg.Extend(ASEntry{Local: ia110, Next: ia111}, signers[ia110])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Extend(ASEntry{Local: ia112}, signers[ia112]); err == nil {
		t.Fatal("entry not matching Next accepted")
	}
}

func TestExtendLeavesOriginalUntouched(t *testing.T) {
	signers, _ := pki(t)
	seg := NewSegment(t0, 1, ia110)
	one, err := seg.Extend(ASEntry{Local: ia110, Next: ia111}, signers[ia110])
	if err != nil {
		t.Fatal(err)
	}
	two, err := one.Extend(ASEntry{Local: ia111, Next: ia112}, signers[ia111])
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Entries) != 1 {
		t.Fatal("Extend mutated its receiver")
	}
	three, err := one.Extend(ASEntry{Local: ia111}, signers[ia111])
	if err != nil {
		t.Fatal(err)
	}
	if len(two.Entries) != 2 || len(three.Entries) != 2 {
		t.Fatal("branching from a shared prefix failed")
	}
}

func TestMACRoundTrip(t *testing.T) {
	info := Info{Timestamp: t0, SegID: 3, Origin: ia110}
	key := []byte("k")
	hf := HopField{ConsIngress: 1, ConsEgress: 2, ExpTime: t1}
	hf.MAC = ComputeMAC(key, info, hf)
	if !VerifyMAC(key, info, hf) {
		t.Fatal("fresh MAC does not verify")
	}
	bad := hf
	bad.ConsEgress = 3
	if VerifyMAC(key, info, bad) {
		t.Fatal("MAC verified for altered egress")
	}
	if VerifyMAC([]byte("other"), info, hf) {
		t.Fatal("MAC verified under wrong key")
	}
}

func TestMACPropertyDistinctInputsDistinctMACs(t *testing.T) {
	info := Info{Timestamp: t0, SegID: 1, Origin: ia110}
	f := func(in1, eg1, in2, eg2 uint16) bool {
		h1 := HopField{ConsIngress: addr.IfID(in1), ConsEgress: addr.IfID(eg1), ExpTime: t1}
		h2 := HopField{ConsIngress: addr.IfID(in2), ConsEgress: addr.IfID(eg2), ExpTime: t1}
		m1 := ComputeMAC([]byte("k"), info, h1)
		m2 := ComputeMAC([]byte("k"), info, h2)
		same := in1 == in2 && eg1 == eg2
		return same == (m1 == m2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentExpiry(t *testing.T) {
	signers, _ := pki(t)
	seg := NewSegment(t0, 1, ia110)
	seg, _ = seg.Extend(ASEntry{Local: ia110, Next: ia111, HopField: HopField{ExpTime: t1}}, signers[ia110])
	early := t0.Add(time.Hour)
	seg, _ = seg.Extend(ASEntry{Local: ia111, HopField: HopField{ExpTime: early}}, signers[ia111])
	if !seg.Expiry().Equal(early) {
		t.Fatalf("Expiry = %v, want %v", seg.Expiry(), early)
	}
}

func TestSegmentID(t *testing.T) {
	signers, _ := pki(t)
	a := buildSegment(t, signers)
	b := buildSegment(t, signers)
	if a.ID() != b.ID() {
		t.Fatal("identical AS content yields different IDs")
	}
	c := NewSegment(t0, 8, ia110)
	if a.ID() == c.ID() {
		t.Fatal("different segments share an ID")
	}
}

// BenchmarkSegmentVerify measures signature-chain verification of a
// three-AS segment.
func BenchmarkSegmentVerify(b *testing.B) {
	signers, store := pki(b)
	seg := buildSegment(b, signers)
	b.ResetTimer()
	for range b.N {
		if err := seg.Verify(store, during); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHopFieldMAC measures hop-field MAC computation, the router's
// fast path.
func BenchmarkHopFieldMAC(b *testing.B) {
	info := Info{Timestamp: t0, SegID: 1, Origin: ia110}
	hf := HopField{ConsIngress: 1, ConsEgress: 2, ExpTime: t1}
	key := []byte("forwarding-key-bench")
	for range b.N {
		hf.MAC = ComputeMAC(key, info, hf)
	}
}
