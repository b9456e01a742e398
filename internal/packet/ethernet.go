package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulation.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeLLDP EtherType = 0x88cc
)

// String names well-known EtherTypes.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeLLDP:
		return "LLDP"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// ErrTruncated reports a buffer too short for the frame being decoded.
var ErrTruncated = errors.New("packet: truncated")

const ethernetHeaderLen = 14

// Ethernet is an untagged Ethernet II frame.
type Ethernet struct {
	Dst     MAC
	Src     MAC
	Type    EtherType
	Payload []byte
}

// Marshal encodes the frame into wire bytes.
func (e *Ethernet) Marshal() []byte {
	return e.AppendTo(make([]byte, 0, ethernetHeaderLen+len(e.Payload)))
}

// AppendTo appends the frame's wire encoding to buf and returns the
// extended slice. Hot send paths call it with the zero-length prefix of a
// reused scratch buffer; see the buffer-ownership contract in package
// link (the sending host copies the finished frame once, before it goes
// on the wire).
func (e *Ethernet) AppendTo(buf []byte) []byte {
	buf = append(buf, e.Dst[:]...)
	buf = append(buf, e.Src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.Type))
	return append(buf, e.Payload...)
}

// AppendEthernetHeader appends just the 14-byte Ethernet II header, for
// callers that build the payload in place directly after it.
func AppendEthernetHeader(buf []byte, dst, src MAC, typ EtherType) []byte {
	buf = append(buf, dst[:]...)
	buf = append(buf, src[:]...)
	return binary.BigEndian.AppendUint16(buf, uint16(typ))
}

// DecodeEthernet decodes an Ethernet II header in place. The returned
// Payload aliases b.
func DecodeEthernet(b []byte) (Ethernet, error) {
	if len(b) < ethernetHeaderLen {
		return Ethernet{}, fmt.Errorf("%w: ethernet header needs %d bytes, have %d", ErrTruncated, ethernetHeaderLen, len(b))
	}
	e := Ethernet{Type: EtherType(binary.BigEndian.Uint16(b[12:14])), Payload: b[ethernetHeaderLen:]}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	return e, nil
}

// UnmarshalEthernet decodes wire bytes into a frame. The payload slice is
// copied so callers may retain it independently of the input buffer.
func UnmarshalEthernet(b []byte) (*Ethernet, error) {
	e, err := DecodeEthernet(b)
	if err != nil {
		return nil, err
	}
	e.Payload = clonePayload(e.Payload)
	return &e, nil
}

// clonePayload returns an exact-length copy of p, the step that turns a
// Decode* result into an Unmarshal* result the caller owns.
func clonePayload(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String renders a compact human-readable form for traces.
func (e *Ethernet) String() string {
	return fmt.Sprintf("eth %s->%s %s len=%d", e.Src, e.Dst, e.Type, len(e.Payload))
}
