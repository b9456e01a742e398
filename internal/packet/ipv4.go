package packet

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// IP protocol numbers used by the simulation.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

const ipv4HeaderLen = 20

// IPv4 is an IPv4 packet with a 20-byte (option-free) header.
type IPv4 struct {
	TTL      uint8
	Protocol uint8
	ID       uint16
	Src      IPv4Addr
	Dst      IPv4Addr
	Payload  []byte
}

// internetChecksum computes the RFC 1071 one's-complement sum. It adds
// the buffer eight bytes at a time as big-endian 64-bit words with
// end-around carry, then folds to 16 bits: 2^16-1 divides 2^64-1, so the
// folded sum equals the 16-bit-word sum, and a non-zero buffer never
// folds to the all-zero representation of zero. The main loop takes four
// words per iteration to amortise the loop and bounds checks.
func internetChecksum(b []byte) uint16 {
	var sum, carry uint64
	for len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	var tail uint64 // trailing bytes, zero-padded on the right
	for i, c := range b {
		tail |= uint64(c) << (56 - 8*i)
	}
	sum, carry = bits.Add64(sum, tail, carry)
	s := sum>>32 + sum&0xffffffff + carry
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// Marshal encodes the packet, computing the header checksum.
func (p *IPv4) Marshal() []byte {
	return p.AppendTo(make([]byte, 0, ipv4HeaderLen+len(p.Payload)))
}

// AppendTo appends the packet's wire encoding (header + Payload) to buf.
func (p *IPv4) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = p.AppendHeaderTo(buf)
	buf = append(buf, p.Payload...)
	FinishIPv4(buf, start)
	return buf
}

// AppendHeaderTo appends the 20-byte header with zero total-length and
// checksum fields and ignores Payload. Callers append the upper-layer
// payload in place directly after it and then call FinishIPv4, so a
// nested frame is built with no intermediate per-layer buffers.
func (p *IPv4) AppendHeaderTo(buf []byte) []byte {
	buf = append(buf, 0x45, 0, 0, 0) // version 4 IHL 5, ToS, total length (patched later)
	buf = binary.BigEndian.AppendUint16(buf, p.ID)
	buf = append(buf, 0, 0, p.TTL, p.Protocol, 0, 0) // flags/frag, TTL, proto, checksum (patched later)
	buf = append(buf, p.Src[:]...)
	return append(buf, p.Dst[:]...)
}

// FinishIPv4 backpatches the total length and header checksum of an IPv4
// header previously appended at offset ipStart, once everything from the
// header to the end of buf is the packet.
func FinishIPv4(buf []byte, ipStart int) {
	pkt := buf[ipStart:]
	binary.BigEndian.PutUint16(pkt[2:4], uint16(len(pkt)))
	pkt[10], pkt[11] = 0, 0
	binary.BigEndian.PutUint16(pkt[10:12], internetChecksum(pkt[:ipv4HeaderLen]))
}

// DecodeIPv4 validates an IPv4 packet in place: version, IHL, header
// checksum and total length. The returned Payload aliases b (trailing
// link-layer padding beyond the total length excluded).
func DecodeIPv4(b []byte) (IPv4, error) {
	if len(b) < ipv4HeaderLen {
		return IPv4{}, fmt.Errorf("%w: ipv4 header needs %d bytes, have %d", ErrTruncated, ipv4HeaderLen, len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4{}, fmt.Errorf("packet: not ipv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return IPv4{}, fmt.Errorf("%w: ipv4 IHL %d", ErrTruncated, ihl)
	}
	if internetChecksum(b[:ihl]) != 0 {
		return IPv4{}, fmt.Errorf("packet: ipv4 header checksum mismatch")
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return IPv4{}, fmt.Errorf("%w: ipv4 total length %d", ErrTruncated, total)
	}
	p := IPv4{
		TTL:      b[8],
		Protocol: b[9],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Payload:  b[ihl:total],
	}
	copy(p.Src[:], b[12:16])
	copy(p.Dst[:], b[16:20])
	return p, nil
}

// UnmarshalIPv4 decodes wire bytes, verifying version and checksum. The
// payload is copied so callers may retain it independently of b.
func UnmarshalIPv4(b []byte) (*IPv4, error) {
	p, err := DecodeIPv4(b)
	if err != nil {
		return nil, err
	}
	p.Payload = clonePayload(p.Payload)
	return &p, nil
}
