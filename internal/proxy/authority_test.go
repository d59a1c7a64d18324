package proxy

import (
	"net/http"
	"net/url"
	"testing"
)

// TestAuthorityParsing: a bare host, host:port, and a bracketed IPv6
// address with and without a port split into the bare host and the port
// (80 when absent), and the authority the proxy routes by keeps an IPv6
// host in brackets.
func TestAuthorityParsing(t *testing.T) {
	for _, tc := range []struct {
		in        string
		host      string
		port      uint16
		authority string
	}{
		{"www.example.com", "www.example.com", 80, "www.example.com:80"},
		{"www.example.com:8080", "www.example.com", 8080, "www.example.com:8080"},
		{"www.example.com:", "www.example.com", 80, "www.example.com:80"},
		{"www.example.com:http", "www.example.com", 80, "www.example.com:80"},
		{"10.0.0.1:443", "10.0.0.1", 443, "10.0.0.1:443"},
		{"[2001:db8::1]", "2001:db8::1", 80, "[2001:db8::1]:80"},
		{"[2001:db8::1]:8080", "2001:db8::1", 8080, "[2001:db8::1]:8080"},
		{"2001:db8::1", "2001:db8::1", 80, "[2001:db8::1]:80"},
	} {
		if got := hostOnly(tc.in); got != tc.host {
			t.Errorf("hostOnly(%q) = %q, want %q", tc.in, got, tc.host)
		}
		if got := portOf(tc.in, 80); got != tc.port {
			t.Errorf("portOf(%q) = %d, want %d", tc.in, got, tc.port)
		}
		r := &http.Request{URL: &url.URL{Scheme: "http", Host: tc.in}}
		if got := authorityOf(r); got != tc.authority {
			t.Errorf("authorityOf(%q) = %q, want %q", tc.in, got, tc.authority)
		}
	}
}

// TestAuthorityParsingAllocs: splitting a port-less host, the common case,
// allocates nothing.
func TestAuthorityParsingAllocs(t *testing.T) {
	const host = "www.scion.example"
	if n := testing.AllocsPerRun(100, func() {
		if hostOnly(host) != host || portOf(host, 80) != 80 {
			t.Fatal("wrong split")
		}
	}); n != 0 {
		t.Fatalf("hostOnly and portOf of a port-less host: %v allocs/op, want 0", n)
	}
}

// TestAnnotationHeadersCanonical: the prebuilt annotation values are
// stored under their keys directly, so the keys must be in canonical form
// for Header.Get to find them.
func TestAnnotationHeadersCanonical(t *testing.T) {
	for _, k := range []string{HeaderVia, HeaderPath, HeaderCompliant} {
		if c := http.CanonicalHeaderKey(k); c != k {
			t.Errorf("header %q is not canonical (%q)", k, c)
		}
	}
}
