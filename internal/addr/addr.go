// Package addr provides SCION addressing primitives: isolation domain (ISD)
// identifiers, AS numbers, the combined ISD-AS pair, and full SCION host
// addresses.
//
// SCION addresses name an endpoint by the isolation domain it resides in, the
// autonomous system within that ISD, and an AS-local host address. This
// package implements parsing and formatting for the textual forms used
// throughout the SCION ecosystem, e.g. "1-ff00:0:110" for an ISD-AS and
// "1-ff00:0:110,10.0.0.1:443" for a full UDP endpoint.
package addr

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ISD is a SCION isolation domain identifier. ISDs group ASes that share a
// common jurisdiction and trust root; ISD 0 is the wildcard.
type ISD uint16

// AS is a SCION AS number, a 48-bit value. ASes in the SCION-reserved range
// are formatted as three colon-separated 16-bit hex groups ("ff00:0:110");
// small values that fit in 32 bits print as plain decimal for BGP
// compatibility.
type AS uint64

// MaxAS is the largest representable AS number (48 bits).
const MaxAS AS = (1 << 48) - 1

// WildcardISD matches any isolation domain in policy expressions.
const WildcardISD ISD = 0

// WildcardAS matches any AS in policy expressions.
const WildcardAS AS = 0

// asDecimalMax is the largest AS number formatted in decimal (BGP-style).
const asDecimalMax = 1<<32 - 1

// ParseISD parses a decimal ISD identifier.
func ParseISD(s string) (ISD, error) {
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("parsing ISD %q: %w", s, err)
	}
	return ISD(v), nil
}

// String implements fmt.Stringer.
func (i ISD) String() string { return strconv.FormatUint(uint64(i), 10) }

// ParseAS parses an AS number in either decimal (BGP-style, up to 2^32-1) or
// colon-separated hexadecimal ("ff00:0:110") notation.
func ParseAS(s string) (AS, error) {
	if !strings.Contains(s, ":") {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing AS %q: %w", s, err)
		}
		if v > asDecimalMax {
			return 0, fmt.Errorf("parsing AS %q: decimal AS exceeds 2^32-1", s)
		}
		return AS(v), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("parsing AS %q: want 3 hex groups, have %d", s, len(parts))
	}
	var as AS
	for _, p := range parts {
		if len(p) == 0 || len(p) > 4 {
			return 0, fmt.Errorf("parsing AS %q: bad group %q", s, p)
		}
		v, err := strconv.ParseUint(p, 16, 16)
		if err != nil {
			return 0, fmt.Errorf("parsing AS %q: %w", s, err)
		}
		as = as<<16 | AS(v)
	}
	return as, nil
}

// String implements fmt.Stringer using decimal for BGP-range values and
// colon-separated hex otherwise.
func (a AS) String() string { return string(a.AppendTo(make([]byte, 0, 16))) }

// AppendTo appends the String form of a to b.
func (a AS) AppendTo(b []byte) []byte {
	if a <= asDecimalMax {
		return strconv.AppendUint(b, uint64(a), 10)
	}
	b = strconv.AppendUint(b, uint64(uint16(a>>32)), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(uint16(a>>16)), 16)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(uint16(a)), 16)
}

// IA is a combined ISD-AS identifier, the unit of SCION inter-domain
// addressing and path-policy matching.
type IA struct {
	ISD ISD
	AS  AS
}

// MustIA builds an IA from its components; it never fails and exists for
// readable literals in tests and topology builders.
func MustIA(isd ISD, as AS) IA { return IA{ISD: isd, AS: as} }

// ParseIA parses an "ISD-AS" pair such as "1-ff00:0:110" or "2-42".
func ParseIA(s string) (IA, error) {
	isdStr, asStr, ok := strings.Cut(s, "-")
	if !ok {
		return IA{}, fmt.Errorf("parsing ISD-AS %q: missing '-' separator", s)
	}
	isd, err := ParseISD(isdStr)
	if err != nil {
		return IA{}, err
	}
	as, err := ParseAS(asStr)
	if err != nil {
		return IA{}, err
	}
	return IA{ISD: isd, AS: as}, nil
}

// String implements fmt.Stringer.
func (ia IA) String() string { return string(ia.AppendTo(make([]byte, 0, 24))) }

// AppendTo appends the String form of ia to b, so hot paths can format an
// IA into a buffer of their own without a string per call.
func (ia IA) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(ia.ISD), 10)
	b = append(b, '-')
	return ia.AS.AppendTo(b)
}

// IsZero reports whether both components are zero (the fully-wildcard IA).
func (ia IA) IsZero() bool { return ia.ISD == 0 && ia.AS == 0 }

// IsWildcard reports whether either component is a wildcard.
func (ia IA) IsWildcard() bool { return ia.ISD == WildcardISD || ia.AS == WildcardAS }

// Matches reports whether ia, possibly containing wildcard components,
// matches the concrete other IA. A zero ISD matches any ISD and a zero AS
// matches any AS.
func (ia IA) Matches(other IA) bool {
	if ia.ISD != WildcardISD && ia.ISD != other.ISD {
		return false
	}
	if ia.AS != WildcardAS && ia.AS != other.AS {
		return false
	}
	return true
}

// MarshalText implements encoding.TextMarshaler so IAs can key JSON maps.
func (ia IA) MarshalText() ([]byte, error) { return []byte(ia.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (ia *IA) UnmarshalText(b []byte) error {
	v, err := ParseIA(string(b))
	if err != nil {
		return err
	}
	*ia = v
	return nil
}

// Addr is a full SCION host address: the ISD-AS plus the AS-local IP.
type Addr struct {
	IA   IA
	Host netip.Addr
}

// ParseAddr parses "ISD-AS,host" such as "1-ff00:0:110,10.0.0.1".
func ParseAddr(s string) (Addr, error) {
	iaStr, hostStr, ok := strings.Cut(s, ",")
	if !ok {
		return Addr{}, fmt.Errorf("parsing SCION address %q: missing ','", s)
	}
	ia, err := ParseIA(iaStr)
	if err != nil {
		return Addr{}, err
	}
	host, err := netip.ParseAddr(hostStr)
	if err != nil {
		return Addr{}, fmt.Errorf("parsing SCION address %q: %w", s, err)
	}
	return Addr{IA: ia, Host: host}, nil
}

// String implements fmt.Stringer.
func (a Addr) String() string { return a.IA.String() + "," + a.Host.String() }

// IsValid reports whether the host component is a valid IP address.
func (a Addr) IsValid() bool { return a.Host.IsValid() }

// UDPAddr is a SCION UDP endpoint: host address plus port.
type UDPAddr struct {
	Addr
	Port uint16
}

// errNoPort is returned when a UDP endpoint string lacks the port component.
var errNoPort = errors.New("missing port")

// ParseUDPAddr parses "ISD-AS,host:port" such as "1-ff00:0:110,10.0.0.1:443".
// IPv6 hosts must be bracketed: "1-ff00:0:110,[::1]:443".
func ParseUDPAddr(s string) (UDPAddr, error) {
	iaStr, rest, ok := strings.Cut(s, ",")
	if !ok {
		return UDPAddr{}, fmt.Errorf("parsing SCION UDP address %q: missing ','", s)
	}
	ia, err := ParseIA(iaStr)
	if err != nil {
		return UDPAddr{}, err
	}
	ap, err := netip.ParseAddrPort(rest)
	if err != nil {
		return UDPAddr{}, fmt.Errorf("parsing SCION UDP address %q: %w", s, err)
	}
	if ap.Port() == 0 && !strings.Contains(rest, ":") {
		return UDPAddr{}, fmt.Errorf("parsing SCION UDP address %q: %w", s, errNoPort)
	}
	return UDPAddr{Addr: Addr{IA: ia, Host: ap.Addr()}, Port: ap.Port()}, nil
}

// String implements fmt.Stringer, bracketing IPv6 hosts.
func (a UDPAddr) String() string {
	return a.IA.String() + "," + netip.AddrPortFrom(a.Host, a.Port).String()
}

// Network implements net.Addr.
func (a UDPAddr) Network() string { return "scion+udp" }

// IfID identifies a SCION interface within an AS. Interface 0 is the
// wildcard ("any interface of this AS") in hop predicates.
type IfID uint16

// String implements fmt.Stringer.
func (i IfID) String() string { return strconv.FormatUint(uint64(i), 10) }
