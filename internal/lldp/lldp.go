// Package lldp implements the Link Layer Discovery Protocol frames used by
// SDN link discovery, including the two controller-private extensions the
// paper relies on:
//
//   - an HMAC authentication TLV (TopoGuard: "authenticated LLDP packets are
//     digitally signed by the controller, preventing forgery or corruption");
//   - an AES-GCM-encrypted departure-timestamp TLV (TopoGuard+'s Link
//     Latency Inspector, Section VI-D).
//
// Both extensions are carried as IEEE organizationally-specific TLVs.
package lldp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sdntamper/internal/packet"
)

// MulticastMAC is the nearest-bridge LLDP destination address.
var MulticastMAC = packet.MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}

// TLV type codes.
const (
	tlvEnd         = 0
	tlvChassisID   = 1
	tlvPortID      = 2
	tlvTTL         = 3
	tlvOrgSpecific = 127
)

// Organizationally-specific subtypes under our private OUI.
const (
	orgSubtypeAuth      = 1
	orgSubtypeTimestamp = 2
)

// oui is the private organizational identifier for controller TLVs.
var oui = [3]byte{0xaa, 0xbb, 0xcc}

// Decode errors.
var (
	ErrMalformed = errors.New("lldp: malformed frame")
	ErrNotLLDP   = errors.New("lldp: not an LLDP ethertype")
)

// Frame is a parsed LLDP packet as emitted by the controller's link
// discovery service: the chassis ID carries the origin switch DPID, the
// port ID the origin port number.
type Frame struct {
	ChassisID uint64 // origin switch datapath ID
	PortID    uint32 // origin switch port
	TTLSecs   uint16 // advertised TTL, seconds

	// Auth is the controller's HMAC over (ChassisID, PortID, Timestamp),
	// or nil for unauthenticated frames.
	Auth []byte

	// Timestamp is the AES-GCM ciphertext of the departure time, or nil
	// when the Link Latency Inspector is not deployed.
	Timestamp []byte
}

func putTLV(buf []byte, typ uint8, value []byte) []byte {
	header := uint16(typ)<<9 | uint16(len(value))&0x1ff
	buf = binary.BigEndian.AppendUint16(buf, header)
	return append(buf, value...)
}

// Marshal encodes the frame into LLDP TLV wire bytes.
func (f *Frame) Marshal() []byte { return f.AppendTo(make([]byte, 0, f.wireLen())) }

// wireLen is the exact encoded size of the frame.
func (f *Frame) wireLen() int {
	n := (2 + 9) + (2 + 5) + (2 + 2) + 2 // chassis, port, TTL, end
	if f.Auth != nil {
		n += 2 + 4 + len(f.Auth)
	}
	if f.Timestamp != nil {
		n += 2 + 4 + len(f.Timestamp)
	}
	return n
}

// AppendTo appends the frame's TLV wire encoding to buf. Unlike the old
// per-TLV construction it builds every TLV in place — no temporary value
// slices — so probe emission from a reused scratch buffer is
// allocation-free.
func (f *Frame) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(tlvChassisID)<<9|9)
	buf = append(buf, 7) // chassis ID subtype: locally assigned
	buf = binary.BigEndian.AppendUint64(buf, f.ChassisID)

	buf = binary.BigEndian.AppendUint16(buf, uint16(tlvPortID)<<9|5)
	buf = append(buf, 7) // port ID subtype: locally assigned
	buf = binary.BigEndian.AppendUint32(buf, f.PortID)

	buf = binary.BigEndian.AppendUint16(buf, uint16(tlvTTL)<<9|2)
	buf = binary.BigEndian.AppendUint16(buf, f.TTLSecs)

	if f.Auth != nil {
		buf = appendOrgTLV(buf, orgSubtypeAuth, f.Auth)
	}
	if f.Timestamp != nil {
		buf = appendOrgTLV(buf, orgSubtypeTimestamp, f.Timestamp)
	}
	return binary.BigEndian.AppendUint16(buf, uint16(tlvEnd)<<9)
}

// appendOrgTLV appends one organizationally-specific TLV under the
// controller's private OUI.
func appendOrgTLV(buf []byte, subtype uint8, data []byte) []byte {
	header := uint16(tlvOrgSpecific)<<9 | uint16(4+len(data))&0x1ff
	buf = binary.BigEndian.AppendUint16(buf, header)
	buf = append(buf, oui[:]...)
	buf = append(buf, subtype)
	return append(buf, data...)
}

// Unmarshal decodes LLDP TLV wire bytes. The frame owns its memory: its
// Auth and Timestamp are copies, so the caller may reuse b.
func Unmarshal(b []byte) (*Frame, error) {
	f, err := Decode(b)
	if err != nil {
		return nil, err
	}
	f.Auth = clone(f.Auth)
	f.Timestamp = clone(f.Timestamp)
	return &f, nil
}

// clone copies b, keeping nil as nil: an absent TLV stays absent.
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Decode decodes LLDP TLV wire bytes like Unmarshal, but in place: the
// frame's Auth and Timestamp alias b. Use it on a buffer nobody writes
// again, such as the payload of a control message the caller owns.
func Decode(b []byte) (Frame, error) {
	var f Frame
	seenChassis, seenPort := false, false
	for len(b) >= 2 {
		header := binary.BigEndian.Uint16(b[:2])
		typ := uint8(header >> 9)
		length := int(header & 0x1ff)
		b = b[2:]
		if len(b) < length {
			return Frame{}, fmt.Errorf("%w: TLV %d claims %d bytes, %d remain", ErrMalformed, typ, length, len(b))
		}
		value := b[:length]
		b = b[length:]
		switch typ {
		case tlvEnd:
			if !seenChassis || !seenPort {
				return Frame{}, fmt.Errorf("%w: missing mandatory TLVs", ErrMalformed)
			}
			return f, nil
		case tlvChassisID:
			if length != 9 {
				return Frame{}, fmt.Errorf("%w: chassis TLV length %d", ErrMalformed, length)
			}
			f.ChassisID = binary.BigEndian.Uint64(value[1:])
			seenChassis = true
		case tlvPortID:
			if length != 5 {
				return Frame{}, fmt.Errorf("%w: port TLV length %d", ErrMalformed, length)
			}
			f.PortID = binary.BigEndian.Uint32(value[1:])
			seenPort = true
		case tlvTTL:
			if length != 2 {
				return Frame{}, fmt.Errorf("%w: TTL TLV length %d", ErrMalformed, length)
			}
			f.TTLSecs = binary.BigEndian.Uint16(value)
		case tlvOrgSpecific:
			if length < 4 || [3]byte(value[:3]) != oui {
				continue // unknown organization: skip
			}
			data := value[4:length:length]
			switch value[3] {
			case orgSubtypeAuth:
				f.Auth = data
			case orgSubtypeTimestamp:
				f.Timestamp = data
			}
		default:
			// Unknown standard TLV: skip, as real parsers do.
		}
	}
	return Frame{}, fmt.Errorf("%w: missing end TLV", ErrMalformed)
}

// NewEthernet wraps the LLDP frame in an Ethernet frame from srcHW to the
// LLDP nearest-bridge multicast address.
func NewEthernet(srcHW packet.MAC, f *Frame) *packet.Ethernet {
	return &packet.Ethernet{
		Dst:     MulticastMAC,
		Src:     srcHW,
		Type:    packet.EtherTypeLLDP,
		Payload: f.Marshal(),
	}
}

// FromEthernet extracts and parses an LLDP frame from an Ethernet frame.
func FromEthernet(e *packet.Ethernet) (*Frame, error) {
	if e.Type != packet.EtherTypeLLDP {
		return nil, ErrNotLLDP
	}
	return Unmarshal(e.Payload)
}
