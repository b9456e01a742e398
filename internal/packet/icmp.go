package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMP message types used by the simulation.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

const icmpHeaderLen = 8

// ICMP is an ICMP echo-family message.
type ICMP struct {
	Type    uint8
	Code    uint8
	ID      uint16
	Seq     uint16
	Payload []byte
}

// Marshal encodes the message, computing its checksum.
func (m *ICMP) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, icmpHeaderLen+len(m.Payload)))
}

// AppendTo appends the message's wire encoding to buf. The checksum
// covers only the appended region, so the message can be built in place
// inside an enclosing IPv4 packet.
func (m *ICMP) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, m.Type, m.Code, 0, 0) // checksum patched below
	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.Seq)
	buf = append(buf, m.Payload...)
	binary.BigEndian.PutUint16(buf[start+2:start+4], internetChecksum(buf[start:]))
	return buf
}

// DecodeICMP validates an ICMP message in place, including its checksum.
// The returned Payload aliases b.
func DecodeICMP(b []byte) (ICMP, error) {
	if len(b) < icmpHeaderLen {
		return ICMP{}, fmt.Errorf("%w: icmp needs %d bytes, have %d", ErrTruncated, icmpHeaderLen, len(b))
	}
	if internetChecksum(b) != 0 {
		return ICMP{}, fmt.Errorf("packet: icmp checksum mismatch")
	}
	return ICMP{
		Type:    b[0],
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Payload: b[icmpHeaderLen:],
	}, nil
}

// UnmarshalICMP decodes wire bytes, verifying the checksum. The payload
// is copied.
func UnmarshalICMP(b []byte) (*ICMP, error) {
	m, err := DecodeICMP(b)
	if err != nil {
		return nil, err
	}
	m.Payload = clonePayload(m.Payload)
	return &m, nil
}

// NewICMPEcho builds a full Ethernet/IPv4/ICMP echo frame. Set reply to
// produce an echo reply instead of a request.
func NewICMPEcho(srcHW, dstHW MAC, srcIP, dstIP IPv4Addr, id, seq uint16, reply bool) *Ethernet {
	t := ICMPEchoRequest
	if reply {
		t = ICMPEchoReply
	}
	icmp := &ICMP{Type: t, ID: id, Seq: seq}
	ip := &IPv4{TTL: 64, Protocol: ProtoICMP, Src: srcIP, Dst: dstIP, Payload: icmp.Marshal()}
	return &Ethernet{Dst: dstHW, Src: srcHW, Type: EtherTypeIPv4, Payload: ip.Marshal()}
}
