package openflow

import (
	"bytes"
	"testing"

	"sdntamper/internal/lldp"
	"sdntamper/internal/packet"
)

// extractFieldsReference is the copying ExtractFields that decoded every
// layer through packet.Unmarshal*, kept verbatim as the oracle for the
// in-place extractor.
func extractFieldsReference(inPort uint32, data []byte) Fields {
	f := Fields{InPort: inPort}
	eth, err := packet.UnmarshalEthernet(data)
	if err != nil {
		return f
	}
	f.EthSrc = eth.Src
	f.EthDst = eth.Dst
	f.EthType = uint16(eth.Type)
	if eth.Type != packet.EtherTypeIPv4 {
		return f
	}
	ip, err := packet.UnmarshalIPv4(eth.Payload)
	if err != nil {
		return f
	}
	f.IPSrc = ip.Src
	f.IPDst = ip.Dst
	f.IPProto = ip.Protocol
	switch ip.Protocol {
	case packet.ProtoTCP:
		if t, err := packet.UnmarshalTCP(ip.Payload); err == nil {
			f.TPSrc = t.SrcPort
			f.TPDst = t.DstPort
		}
	case packet.ProtoUDP:
		if u, err := packet.UnmarshalUDP(ip.Payload); err == nil {
			f.TPSrc = u.SrcPort
			f.TPDst = u.DstPort
		}
	case packet.ProtoICMP:
		if m, err := packet.UnmarshalICMP(ip.Payload); err == nil {
			f.TPSrc = uint16(m.Type)
			f.TPDst = uint16(m.Code)
		}
	}
	return f
}

// extractCorpus holds one valid frame per protocol the switch classifies,
// plus frames with link-layer padding after the IPv4 total length, which
// every L4 decoder must exclude from its checksum.
func extractCorpus() map[string][]byte {
	a, b := packet.MustMAC("aa:aa:aa:aa:aa:01"), packet.MustMAC("bb:bb:bb:bb:bb:02")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2")
	udp := func(payload []byte) []byte {
		u := &packet.UDP{SrcPort: 5353, DstPort: 53, Payload: payload}
		ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, ID: 9, Src: ipA, Dst: ipB, Payload: u.Marshal()}
		return (&packet.Ethernet{Dst: b, Src: a, Type: packet.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	}
	pad := func(frame []byte, n int) []byte {
		return append(frame, bytes.Repeat([]byte{0xa5}, n)...)
	}
	return map[string][]byte{
		"arp":         packet.NewARPRequest(a, ipA, ipB).Marshal(),
		"icmp":        packet.NewICMPEcho(a, b, ipA, ipB, 3, 4, false).Marshal(),
		"tcp":         packet.NewTCPSegment(a, b, ipA, ipB, 40000, 443, packet.TCPSyn|packet.TCPAck, 11, 12, []byte("hello")).Marshal(),
		"udp":         udp([]byte("abcdefghijk")),
		"udp-padded":  pad(udp([]byte{7}), 17),
		"tcp-padded":  pad(packet.NewTCPSegment(a, b, ipA, ipB, 1, 2, packet.TCPRst, 0, 0, nil).Marshal(), 6),
		"icmp-padded": pad(packet.NewICMPEcho(a, b, ipA, ipB, 5, 6, false).Marshal(), 18),
		"lldp":        lldp.NewEthernet(a, &lldp.Frame{ChassisID: 0x10001, PortID: 3, TTLSecs: 120}).Marshal(),
	}
}

func checkExtract(t *testing.T, what string, inPort uint32, data []byte) {
	t.Helper()
	if got, want := ExtractFields(inPort, data), extractFieldsReference(inPort, data); got != want {
		t.Fatalf("%s (%x):\n got %+v\nwant %+v", what, data, got, want)
	}
}

// TestExtractFieldsMatchesReference: on every valid frame, every
// single-byte mutation of it (which covers checksum, IHL, total-length
// and UDP-length corruption) and every truncation, the in-place extractor
// returns exactly the tuple the copying reference returns.
func TestExtractFieldsMatchesReference(t *testing.T) {
	for name, frame := range extractCorpus() {
		checkExtract(t, name, 4, frame)
		if f := ExtractFields(4, frame); f.EthType == uint16(packet.EtherTypeIPv4) && f.TPSrc == 0 {
			t.Fatalf("%s: valid frame not classified down to L4: %+v", name, f)
		}
		buf := make([]byte, len(frame))
		for i := range frame {
			for v := 0; v < 256; v++ {
				if byte(v) == frame[i] {
					continue
				}
				copy(buf, frame)
				buf[i] = byte(v)
				checkExtract(t, name+" mutated", 4, buf)
			}
		}
		for n := 0; n < len(frame); n++ {
			checkExtract(t, name+" truncated", 4, frame[:n])
		}
	}
}

// FuzzExtractFields checks the same property on arbitrary bytes.
func FuzzExtractFields(f *testing.F) {
	for _, frame := range extractCorpus() {
		f.Add(uint32(1), frame)
	}
	f.Fuzz(func(t *testing.T, inPort uint32, data []byte) {
		checkExtract(t, "fuzz", inPort, data)
	})
}
