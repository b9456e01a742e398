package packet

import (
	"testing"
	"testing/quick"
)

// Every decoder parses attacker-controlled bytes; none may panic.
func TestDecodersNeverPanic(t *testing.T) {
	decoders := map[string]func([]byte){
		"ethernet": func(b []byte) { _, _ = UnmarshalEthernet(b) },
		"arp":      func(b []byte) { _, _ = DecodeARP(b) },
		"ipv4":     func(b []byte) { _, _ = UnmarshalIPv4(b) },
		"icmp":     func(b []byte) { _, _ = UnmarshalICMP(b) },
		"tcp":      func(b []byte) { _, _ = UnmarshalTCP(b) },
		"udp":      func(b []byte) { _, _ = UnmarshalUDP(b) },
	}
	for name, decode := range decoders {
		decode := decode
		f := func(data []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panic on %x: %v", name, data, r)
				}
			}()
			decode(data)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestLayeredDecodeNeverPanics pushes random bytes through the full
// layered parse the switch and hosts perform.
func TestLayeredDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		eth, err := UnmarshalEthernet(data)
		if err != nil {
			return true
		}
		switch eth.Type {
		case EtherTypeARP:
			_, _ = DecodeARP(eth.Payload)
		case EtherTypeIPv4:
			ip, err := UnmarshalIPv4(eth.Payload)
			if err != nil {
				return true
			}
			switch ip.Protocol {
			case ProtoICMP:
				_, _ = UnmarshalICMP(ip.Payload)
			case ProtoTCP:
				_, _ = UnmarshalTCP(ip.Payload)
			case ProtoUDP:
				_, _ = UnmarshalUDP(ip.Payload)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestIPv4CorruptionAlwaysDetected flips a single bit anywhere in the
// header of a valid IPv4 packet: either the parse fails (checksum) or the
// flip hit the checksum field itself and repaired nothing.
func TestIPv4CorruptionAlwaysDetected(t *testing.T) {
	base := (&IPv4{TTL: 64, Protocol: ProtoTCP, ID: 7,
		Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2"), Payload: []byte{1, 2, 3}}).Marshal()
	f := func(pos uint8, bit uint8) bool {
		idx := int(pos) % 20 // header bytes only
		mut := make([]byte, len(base))
		copy(mut, base)
		mut[idx] ^= 1 << (bit % 8)
		got, err := UnmarshalIPv4(mut)
		if err != nil {
			return true
		}
		// Parsed despite a flip: only acceptable if the flip is inside
		// the checksum bytes (10-11) and produced... no: flipping checksum
		// alone breaks the sum, so parse must fail; flipping version or
		// IHL may also fail differently. Any successful parse here must
		// mean the flip restored an identical header, which a single bit
		// flip cannot do.
		_ = got
		t.Errorf("single-bit corruption at %d/%d went undetected", idx, bit%8)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestHostReceiveNeverPanics exercises the host's full receive path on
// arbitrary frames (package-internal harness lives in dataplane; here we
// cover the codec layering the host relies on via Ethernet-first parse).
func TestEthernetDecodeEncodeIdempotent(t *testing.T) {
	f := func(data []byte) bool {
		eth, err := UnmarshalEthernet(data)
		if err != nil {
			return true
		}
		re, err := UnmarshalEthernet(eth.Marshal())
		if err != nil {
			return false
		}
		return re.Src == eth.Src && re.Dst == eth.Dst && re.Type == eth.Type
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
