package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"sdntamper/internal/packet"
)

// Wildcards flags which Match fields are ignored during lookup.
type Wildcards uint32

// Wildcard bits, one per matchable field.
const (
	WildInPort Wildcards = 1 << iota
	WildEthSrc
	WildEthDst
	WildEthType
	WildIPSrc
	WildIPDst
	WildIPProto
	WildTPSrc
	WildTPDst

	// WildAll ignores every field (a table-miss style match).
	WildAll Wildcards = WildInPort | WildEthSrc | WildEthDst | WildEthType |
		WildIPSrc | WildIPDst | WildIPProto | WildTPSrc | WildTPDst
)

// Has reports whether all bits in w2 are set.
func (w Wildcards) Has(w2 Wildcards) bool { return w&w2 == w2 }

// Fields is the header tuple extracted from a dataplane packet, the value
// a Match is tested against. Transport ports carry the ICMP type/code for
// ICMP packets, mirroring OpenFlow 1.0.
type Fields struct {
	InPort  uint32
	EthSrc  packet.MAC
	EthDst  packet.MAC
	EthType uint16
	IPSrc   packet.IPv4Addr
	IPDst   packet.IPv4Addr
	IPProto uint8
	TPSrc   uint16
	TPDst   uint16
}

// ExtractFields parses a raw Ethernet frame received on inPort into the
// OpenFlow match tuple. Parse failures of inner layers yield a partially
// populated tuple rather than an error, as a hardware switch would. Every
// layer is validated in place (packet.Decode*), so a well-formed frame is
// classified without allocating or copying its payload. A switch reaches
// it through link.Frame.Fields, which runs it once per wire frame and
// reuses the tuple at every later hop.
func ExtractFields(inPort uint32, data []byte) Fields {
	f := Fields{InPort: inPort}
	eth, err := packet.DecodeEthernet(data)
	if err != nil {
		return f
	}
	f.EthSrc = eth.Src
	f.EthDst = eth.Dst
	f.EthType = uint16(eth.Type)
	if eth.Type != packet.EtherTypeIPv4 {
		return f
	}
	ip, err := packet.DecodeIPv4(eth.Payload)
	if err != nil {
		return f
	}
	f.IPSrc = ip.Src
	f.IPDst = ip.Dst
	f.IPProto = ip.Protocol
	switch ip.Protocol {
	case packet.ProtoTCP:
		if t, err := packet.DecodeTCP(ip.Payload); err == nil {
			f.TPSrc = t.SrcPort
			f.TPDst = t.DstPort
		}
	case packet.ProtoUDP:
		if u, err := packet.DecodeUDP(ip.Payload); err == nil {
			f.TPSrc = u.SrcPort
			f.TPDst = u.DstPort
		}
	case packet.ProtoICMP:
		if m, err := packet.DecodeICMP(ip.Payload); err == nil {
			f.TPSrc = uint16(m.Type)
			f.TPDst = uint16(m.Code)
		}
	}
	return f
}

// Match is an OpenFlow 1.0-style exact/wildcard flow match.
type Match struct {
	Wildcards Wildcards
	Fields    Fields
}

// MatchAll matches every packet.
func MatchAll() Match { return Match{Wildcards: WildAll} }

// ExactMatch matches precisely the given tuple.
func ExactMatch(f Fields) Match { return Match{Fields: f} }

// Matches reports whether the tuple satisfies the match.
func (m Match) Matches(f Fields) bool {
	w := m.Wildcards
	switch {
	case !w.Has(WildInPort) && m.Fields.InPort != f.InPort:
		return false
	case !w.Has(WildEthSrc) && m.Fields.EthSrc != f.EthSrc:
		return false
	case !w.Has(WildEthDst) && m.Fields.EthDst != f.EthDst:
		return false
	case !w.Has(WildEthType) && m.Fields.EthType != f.EthType:
		return false
	case !w.Has(WildIPSrc) && m.Fields.IPSrc != f.IPSrc:
		return false
	case !w.Has(WildIPDst) && m.Fields.IPDst != f.IPDst:
		return false
	case !w.Has(WildIPProto) && m.Fields.IPProto != f.IPProto:
		return false
	case !w.Has(WildTPSrc) && m.Fields.TPSrc != f.TPSrc:
		return false
	case !w.Has(WildTPDst) && m.Fields.TPDst != f.TPDst:
		return false
	}
	return true
}

// String renders only the concrete (non-wildcarded) fields.
func (m Match) String() string {
	if m.Wildcards.Has(WildAll) {
		return "match(*)"
	}
	var parts []string
	add := func(w Wildcards, name, val string) {
		if !m.Wildcards.Has(w) {
			parts = append(parts, name+"="+val)
		}
	}
	add(WildInPort, "in", fmt.Sprint(m.Fields.InPort))
	add(WildEthSrc, "ethsrc", m.Fields.EthSrc.String())
	add(WildEthDst, "ethdst", m.Fields.EthDst.String())
	add(WildEthType, "ethtype", fmt.Sprintf("0x%04x", m.Fields.EthType))
	add(WildIPSrc, "ipsrc", m.Fields.IPSrc.String())
	add(WildIPDst, "ipdst", m.Fields.IPDst.String())
	add(WildIPProto, "proto", fmt.Sprint(m.Fields.IPProto))
	add(WildTPSrc, "tpsrc", fmt.Sprint(m.Fields.TPSrc))
	add(WildTPDst, "tpdst", fmt.Sprint(m.Fields.TPDst))
	return "match(" + strings.Join(parts, ",") + ")"
}

const matchLen = 4 + 4 + 6 + 6 + 2 + 4 + 4 + 1 + 2 + 2 // 35 bytes

func (m Match) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Wildcards))
	buf = binary.BigEndian.AppendUint32(buf, m.Fields.InPort)
	buf = append(buf, m.Fields.EthSrc[:]...)
	buf = append(buf, m.Fields.EthDst[:]...)
	buf = binary.BigEndian.AppendUint16(buf, m.Fields.EthType)
	buf = append(buf, m.Fields.IPSrc[:]...)
	buf = append(buf, m.Fields.IPDst[:]...)
	buf = append(buf, m.Fields.IPProto)
	buf = binary.BigEndian.AppendUint16(buf, m.Fields.TPSrc)
	return binary.BigEndian.AppendUint16(buf, m.Fields.TPDst)
}

func decodeMatch(b []byte) (Match, error) {
	if len(b) < matchLen {
		return Match{}, fmt.Errorf("%w: match needs %d bytes, have %d", ErrTruncated, matchLen, len(b))
	}
	var m Match
	m.Wildcards = Wildcards(binary.BigEndian.Uint32(b[0:4]))
	m.Fields.InPort = binary.BigEndian.Uint32(b[4:8])
	copy(m.Fields.EthSrc[:], b[8:14])
	copy(m.Fields.EthDst[:], b[14:20])
	m.Fields.EthType = binary.BigEndian.Uint16(b[20:22])
	copy(m.Fields.IPSrc[:], b[22:26])
	copy(m.Fields.IPDst[:], b[26:30])
	m.Fields.IPProto = b[30]
	m.Fields.TPSrc = binary.BigEndian.Uint16(b[31:33])
	m.Fields.TPDst = binary.BigEndian.Uint16(b[33:35])
	return m, nil
}
