package main

import (
	"strings"
	"testing"
)

// benchOut is canned `go test -bench` output from two packages, the shape
// CI pipes in.
const benchOut = `goos: linux
goarch: amd64
pkg: tango/internal/dataplane
BenchmarkPacketTemplate/full-2         	     100	      1000 ns/op	1000.00 MB/s	    1408 B/op	       1 allocs/op
BenchmarkPacketTemplate/templated-2    	     100	       500 ns/op	2000.00 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	tango/internal/dataplane	0.1s
pkg: tango/internal/squic
BenchmarkSQUICTransfer-2   	       1	   5000000 ns/op	  52.43 MB/s
BenchmarkAckProcessing/inflight64   	   10000	       300 ns/op
BenchmarkAckProcessing/inflight4096-2   	   10000	       450 ns/op
PASS
`

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		in   string
		want int
		msg  string // in stderr when the run fails
	}{
		{"all pass", []string{
			"-gate-max", "PacketTemplate/templated=600",
			"-gate-rel", "PacketTemplate/templated<=PacketTemplate/full*1.1",
			"-gate-rel", "AckProcessing/inflight4096<=AckProcessing/inflight64*2",
			"-gate-min", "SQUICTransfer/MB/s=31",
		}, benchOut, 0, ""},
		{"no gates", nil, benchOut, 0, ""},
		{"later line replaces earlier", []string{"-gate-max", "SQUICTransfer=4000000"},
			benchOut + "BenchmarkSQUICTransfer-2   \t  10\t   3000000 ns/op\t  87.38 MB/s\n", 0, ""},
		{"ceiling exceeded", []string{"-gate-max", "PacketTemplate/templated=499"}, benchOut, 1, "exceeds ceiling"},
		{"ratio exceeded", []string{"-gate-rel", "PacketTemplate/full<=PacketTemplate/templated*1.9"}, benchOut, 1, "exceeds PacketTemplate/templated*1.9"},
		{"under floor", []string{"-gate-min", "SQUICTransfer/MB/s=60"}, benchOut, 1, "below floor"},
		{"missing benchmark", []string{"-gate-min", "StripedTransfer/MB/s=11"}, benchOut, 1, "missing"},
		{"missing benchmark in ratio", []string{"-gate-rel", "PacketTemplate/templated<=PacketTemplate/gone*2"}, benchOut, 1, "missing"},
		{"missing metric", []string{"-gate-min", "SQUICTransfer/allocs/op=0"}, benchOut, 1, "no allocs/op metric"},
		{"no benchmark lines", []string{"-gate-max", "X=1"}, "PASS\nok  \ttango\t0.1s\n", 1, "no benchmark lines"},
		{"bad flag", []string{"-gate-rel", "A<=B"}, benchOut, 2, "A<=B*F"},
		{"removed alloc gate", []string{"-gate", "MonitorScale=12"}, benchOut, 2, "not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			got := run(tc.args, strings.NewReader(tc.in), &stderr)
			if got != tc.want || !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("exit %d, want %d with %q; stderr:\n%s", got, tc.want, tc.msg, stderr.String())
			}
		})
	}
}
