// Package packet implements the dataplane frame formats the simulation
// exchanges: Ethernet, ARP, IPv4, ICMP, TCP and UDP, each with a strict
// binary encoder and decoder. Attacks in this repository relay and spoof
// the actual encoded bytes, mirroring the packet-level nature of the
// paper's attacks.
//
// Decoders come in two forms. Decode* validates a layer in place and
// returns the header by value with a Payload aliasing the input, for
// per-hop classification that must not allocate; Unmarshal* is Decode*
// plus a payload copy, for callers that retain what they decode.
package packet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// ErrBadAddress reports an unparseable address literal.
var ErrBadAddress = errors.New("packet: bad address")

// ParseMAC parses a colon-separated hex MAC such as "aa:bb:cc:dd:ee:ff".
func ParseMAC(s string) (MAC, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return MAC{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	var m MAC
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return MAC{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// MustMAC parses a MAC literal and panics on failure; for tests and
// compile-time-constant-like initialization only.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String renders the address in canonical lowercase colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// IPv4Addr is a 32-bit IPv4 address.
type IPv4Addr [4]byte

// ParseIPv4 parses dotted-quad notation such as "10.0.0.1".
func ParseIPv4(s string) (IPv4Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return IPv4Addr{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	var a IPv4Addr
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return IPv4Addr{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// MustIPv4 parses an IPv4 literal and panics on failure.
func MustIPv4(s string) IPv4Addr {
	a, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders dotted-quad notation.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (a IPv4Addr) IsZero() bool { return a == IPv4Addr{} }
