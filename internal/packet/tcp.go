package packet

import (
	"encoding/binary"
	"fmt"
)

// TCPFlags is the TCP control-bit field.
type TCPFlags uint8

// TCP control bits.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// Has reports whether all bits in f are set.
func (t TCPFlags) Has(f TCPFlags) bool { return t&f == f }

// String lists the set flags, e.g. "SYN|ACK".
func (t TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{TCPFin, "FIN"}, {TCPSyn, "SYN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {TCPAck, "ACK"}, {TCPUrg, "URG"},
	}
	out := ""
	for _, n := range names {
		if t.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

const tcpHeaderLen = 20

// TCP is a TCP segment with a 20-byte (option-free) header.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16
	Payload []byte
}

// Marshal encodes the segment. The checksum field is computed over the
// segment alone (the simulation does not need the IPv4 pseudo-header to
// detect corruption, and omitting it keeps the codec layering clean).
func (t *TCP) Marshal() []byte {
	return t.AppendTo(make([]byte, 0, tcpHeaderLen+len(t.Payload)))
}

// AppendTo appends the segment's wire encoding to buf; like Marshal, the
// checksum covers only the appended region.
func (t *TCP) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Ack)
	buf = append(buf, 5<<4, byte(t.Flags)) // data offset: 5 words
	buf = binary.BigEndian.AppendUint16(buf, t.Window)
	buf = append(buf, 0, 0, 0, 0) // checksum (patched below), urgent pointer
	buf = append(buf, t.Payload...)
	binary.BigEndian.PutUint16(buf[start+16:start+18], internetChecksum(buf[start:]))
	return buf
}

// DecodeTCP validates a TCP segment in place: data offset and checksum.
// The returned Payload aliases b.
func DecodeTCP(b []byte) (TCP, error) {
	if len(b) < tcpHeaderLen {
		return TCP{}, fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTruncated, tcpHeaderLen, len(b))
	}
	offset := int(b[12]>>4) * 4
	if offset < tcpHeaderLen || offset > len(b) {
		return TCP{}, fmt.Errorf("%w: tcp data offset %d", ErrTruncated, offset)
	}
	if internetChecksum(b) != 0 {
		return TCP{}, fmt.Errorf("packet: tcp checksum mismatch")
	}
	return TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   TCPFlags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Payload: b[offset:],
	}, nil
}

// UnmarshalTCP decodes wire bytes, verifying the checksum. The payload is
// copied.
func UnmarshalTCP(b []byte) (*TCP, error) {
	t, err := DecodeTCP(b)
	if err != nil {
		return nil, err
	}
	t.Payload = clonePayload(t.Payload)
	return &t, nil
}

// NewTCPSegment builds a full Ethernet/IPv4/TCP frame.
func NewTCPSegment(srcHW, dstHW MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, flags TCPFlags, seq, ack uint32, payload []byte) *Ethernet {
	seg := &TCP{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Ack: ack,
		Flags: flags, Window: 65535, Payload: payload,
	}
	ip := &IPv4{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP, Payload: seg.Marshal()}
	return &Ethernet{Dst: dstHW, Src: srcHW, Type: EtherTypeIPv4, Payload: ip.Marshal()}
}

const udpHeaderLen = 8

// UDP is a UDP datagram.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Marshal encodes the datagram.
func (u *UDP) Marshal() []byte {
	return u.AppendTo(make([]byte, 0, udpHeaderLen+len(u.Payload)))
}

// AppendTo appends the datagram's wire encoding to buf.
func (u *UDP) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, uint16(udpHeaderLen+len(u.Payload)))
	buf = append(buf, 0, 0) // checksum patched below
	buf = append(buf, u.Payload...)
	binary.BigEndian.PutUint16(buf[start+6:start+8], internetChecksum(buf[start:]))
	return buf
}

// DecodeUDP validates a UDP datagram in place: length and checksum. The
// returned Payload aliases b (bytes beyond the UDP length excluded).
func DecodeUDP(b []byte) (UDP, error) {
	if len(b) < udpHeaderLen {
		return UDP{}, fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTruncated, udpHeaderLen, len(b))
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < udpHeaderLen || length > len(b) {
		return UDP{}, fmt.Errorf("%w: udp length %d", ErrTruncated, length)
	}
	if internetChecksum(b[:length]) != 0 {
		return UDP{}, fmt.Errorf("packet: udp checksum mismatch")
	}
	return UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[udpHeaderLen:length],
	}, nil
}

// UnmarshalUDP decodes wire bytes, verifying length and checksum. The
// payload is copied.
func UnmarshalUDP(b []byte) (*UDP, error) {
	u, err := DecodeUDP(b)
	if err != nil {
		return nil, err
	}
	u.Payload = clonePayload(u.Payload)
	return &u, nil
}
