package packet

import (
	"encoding/binary"
	"fmt"
)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

const arpLen = 28

// ARP is an Ethernet/IPv4 ARP packet.
type ARP struct {
	Op       uint16
	SenderHW MAC
	SenderIP IPv4Addr
	TargetHW MAC
	TargetIP IPv4Addr
}

// Marshal encodes the packet into wire bytes.
func (a *ARP) Marshal() []byte { return a.AppendTo(make([]byte, 0, arpLen)) }

// AppendTo appends the packet's wire encoding to buf.
func (a *ARP) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, 1)      // hardware type: Ethernet
	buf = binary.BigEndian.AppendUint16(buf, 0x0800) // protocol type: IPv4
	buf = append(buf, 6, 4)                          // hardware size, protocol size
	buf = binary.BigEndian.AppendUint16(buf, a.Op)
	buf = append(buf, a.SenderHW[:]...)
	buf = append(buf, a.SenderIP[:]...)
	buf = append(buf, a.TargetHW[:]...)
	return append(buf, a.TargetIP[:]...)
}

// DecodeARP decodes an ARP packet by value. ARP holds no slices, so
// nothing of b is retained and nothing is allocated.
func DecodeARP(b []byte) (ARP, error) {
	if len(b) < arpLen {
		return ARP{}, fmt.Errorf("%w: arp needs %d bytes, have %d", ErrTruncated, arpLen, len(b))
	}
	if ht := binary.BigEndian.Uint16(b[0:2]); ht != 1 {
		return ARP{}, fmt.Errorf("packet: unsupported arp hardware type %d", ht)
	}
	if pt := binary.BigEndian.Uint16(b[2:4]); pt != 0x0800 {
		return ARP{}, fmt.Errorf("packet: unsupported arp protocol type 0x%04x", pt)
	}
	a := ARP{Op: binary.BigEndian.Uint16(b[6:8])}
	copy(a.SenderHW[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetHW[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return a, nil
}

// NewARPRequest builds a who-has broadcast frame asking for targetIP.
func NewARPRequest(senderHW MAC, senderIP, targetIP IPv4Addr) *Ethernet {
	arp := &ARP{Op: ARPRequest, SenderHW: senderHW, SenderIP: senderIP, TargetIP: targetIP}
	return &Ethernet{Dst: BroadcastMAC, Src: senderHW, Type: EtherTypeARP, Payload: arp.Marshal()}
}

// NewARPReply builds a unicast is-at reply to a prior request.
func NewARPReply(senderHW MAC, senderIP IPv4Addr, targetHW MAC, targetIP IPv4Addr) *Ethernet {
	arp := &ARP{Op: ARPReply, SenderHW: senderHW, SenderIP: senderIP, TargetHW: targetHW, TargetIP: targetIP}
	return &Ethernet{Dst: targetHW, Src: senderHW, Type: EtherTypeARP, Payload: arp.Marshal()}
}
