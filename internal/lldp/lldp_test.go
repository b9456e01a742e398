package lldp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"sdntamper/internal/packet"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{ChassisID: 0x1, PortID: 3, TTLSecs: 120}
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ChassisID != f.ChassisID || got.PortID != f.PortID || got.TTLSecs != f.TTLSecs {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, f)
	}
	if got.Auth != nil || got.Timestamp != nil {
		t.Fatal("unexpected optional TLVs")
	}
}

func TestFrameRoundTripWithExtensions(t *testing.T) {
	f := &Frame{
		ChassisID: 0xdeadbeef,
		PortID:    42,
		TTLSecs:   120,
		Auth:      bytes.Repeat([]byte{0xaa}, 32),
		Timestamp: bytes.Repeat([]byte{0xbb}, 20),
	}
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Auth, f.Auth) || !bytes.Equal(got.Timestamp, f.Timestamp) {
		t.Fatalf("extension TLVs lost: %+v", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(chassis uint64, port uint32, ttl uint16, auth, ts []byte) bool {
		if len(auth) > 200 || len(ts) > 200 {
			return true
		}
		in := &Frame{ChassisID: chassis, PortID: port, TTLSecs: ttl}
		if len(auth) > 0 {
			in.Auth = auth
		}
		if len(ts) > 0 {
			in.Timestamp = ts
		}
		got, err := Unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		return got.ChassisID == chassis && got.PortID == port && got.TTLSecs == ttl &&
			bytes.Equal(got.Auth, in.Auth) && bytes.Equal(got.Timestamp, in.Timestamp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0xff, 0xff},             // TLV longer than buffer
		(&Frame{}).Marshal()[:4], // truncated mid-frame
		putTLV(nil, tlvEnd, nil), // end with no mandatory TLVs
		putTLV(putTLV(nil, tlvChassisID, make([]byte, 9)), tlvEnd, nil), // chassis only
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

func TestUnmarshalBadTLVLengths(t *testing.T) {
	bad := putTLV(nil, tlvChassisID, make([]byte, 3))
	bad = putTLV(bad, tlvEnd, nil)
	if _, err := Unmarshal(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short chassis accepted: %v", err)
	}
}

func TestUnknownTLVsSkipped(t *testing.T) {
	var buf []byte
	chassis := make([]byte, 9)
	chassis[0] = 7
	buf = putTLV(buf, tlvChassisID, chassis)
	port := make([]byte, 5)
	buf = putTLV(buf, tlvPortID, port)
	buf = putTLV(buf, 5, []byte("sysname"))                           // system name TLV
	buf = putTLV(buf, tlvOrgSpecific, []byte{0x00, 0x12, 0x0f, 1, 2}) // foreign OUI
	buf = putTLV(buf, tlvEnd, nil)
	f, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Auth != nil || f.Timestamp != nil {
		t.Fatal("foreign TLVs misparsed as ours")
	}
}

func TestEthernetWrapper(t *testing.T) {
	src := packet.MustMAC("00:00:00:00:01:01")
	e := NewEthernet(src, &Frame{ChassisID: 1, PortID: 2, TTLSecs: 120})
	if e.Dst != MulticastMAC || e.Type != packet.EtherTypeLLDP {
		t.Fatalf("bad wrapper: %+v", e)
	}
	f, err := FromEthernet(e)
	if err != nil {
		t.Fatal(err)
	}
	if f.ChassisID != 1 || f.PortID != 2 {
		t.Fatalf("bad inner frame: %+v", f)
	}
	_, err = FromEthernet(&packet.Ethernet{Type: packet.EtherTypeIPv4})
	if !errors.Is(err, ErrNotLLDP) {
		t.Fatalf("err = %v, want ErrNotLLDP", err)
	}
}

func TestSignVerify(t *testing.T) {
	k, err := NewKeychain([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSigner()
	f := &Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	s.Sign(f)
	if err := s.Verify(f); err != nil {
		t.Fatalf("verify signed frame: %v", err)
	}
}

func TestVerifySurvivesRoundTrip(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	f := &Frame{ChassisID: 7, PortID: 9, TTLSecs: 120}
	f.Timestamp = s.SealTimestamp(time.Unix(1000, 0))
	s.Sign(f)
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(got); err != nil {
		t.Fatalf("verify after roundtrip: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	f := &Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	s.Sign(f)

	forged := *f
	forged.PortID = 3 // attacker rewrites origin port
	if err := s.Verify(&forged); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("tampered frame verified: %v", err)
	}

	unsigned := &Frame{ChassisID: 1, PortID: 2}
	if err := s.Verify(unsigned); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("unsigned frame verified: %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1, _ := NewKeychain([]byte("controller"))
	k2, _ := NewKeychain([]byte("attacker"))
	f := &Frame{ChassisID: 1, PortID: 2}
	k2.NewSigner().Sign(f)
	if err := k1.NewSigner().Verify(f); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("cross-key frame verified: %v", err)
	}
}

func TestSignatureCoversTimestamp(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	f := &Frame{ChassisID: 1, PortID: 2}
	f.Timestamp = s.SealTimestamp(time.Unix(5, 0))
	s.Sign(f)
	f.Timestamp = s.SealTimestamp(time.Unix(6, 0)) // swap in a fresher timestamp
	if err := s.Verify(f); !errors.Is(err, ErrBadAuth) {
		t.Fatal("timestamp substitution not detected: attacker could defeat the LLI by re-stamping")
	}
}

func TestTimestampSealOpen(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	want := time.Unix(1530000000, 123456789)
	ct := s.SealTimestamp(want)
	got, err := s.OpenTimestamp(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("timestamp = %v, want %v", got, want)
	}
}

func TestTimestampCiphertextsDiffer(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	a := bytes.Clone(s.SealTimestamp(time.Unix(1, 0))) // the next seal reuses s's scratch
	b := s.SealTimestamp(time.Unix(1, 0))
	if bytes.Equal(a, b) {
		t.Fatal("nonce reuse: identical plaintexts produced identical ciphertexts")
	}
}

func TestTimestampOpaqueToAttacker(t *testing.T) {
	controller, _ := NewKeychain([]byte("controller"))
	attacker, _ := NewKeychain([]byte("guess"))
	ct := controller.NewSigner().SealTimestamp(time.Unix(42, 0))
	if _, err := attacker.NewSigner().OpenTimestamp(ct); !errors.Is(err, ErrBadTimestamp) {
		t.Fatal("attacker decrypted controller timestamp")
	}
}

func TestTimestampTamperDetected(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	ct := s.SealTimestamp(time.Unix(42, 0))
	ct[len(ct)-1] ^= 0x01
	if _, err := s.OpenTimestamp(ct); !errors.Is(err, ErrBadTimestamp) {
		t.Fatal("tampered ciphertext accepted")
	}
	if _, err := s.OpenTimestamp(ct[:4]); !errors.Is(err, ErrBadTimestamp) {
		t.Fatal("short ciphertext accepted")
	}
}

func TestTimestampRoundTripProperty(t *testing.T) {
	k, _ := NewKeychain([]byte("secret"))
	s := k.NewSigner()
	f := func(ns int64) bool {
		want := time.Unix(0, ns)
		got, err := s.OpenTimestamp(s.SealTimestamp(want))
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRelayedFrameStillVerifies(t *testing.T) {
	// The crux of the link-fabrication attack: a byte-for-byte relayed LLDP
	// frame remains authentic, so LLDP signing alone cannot stop relaying.
	k, _ := NewKeychain([]byte("controller"))
	s := k.NewSigner()
	f := &Frame{ChassisID: 0x1, PortID: 1, TTLSecs: 120}
	f.Timestamp = s.SealTimestamp(time.Unix(100, 0))
	s.Sign(f)
	wire := f.Marshal()

	relayed := make([]byte, len(wire))
	copy(relayed, wire) // attacker copies the bytes across its side channel
	got, err := Unmarshal(relayed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(got); err != nil {
		t.Fatalf("relayed authentic frame failed verification: %v", err)
	}
}

// TestSignersShareNonceSequence: signers of one keychain draw from its
// single nonce counter, so interleaving two of them (as a cluster's
// replicas do) seals exactly the bytes one signer alone would, and a
// reused signer signs exactly what a fresh one does.
func TestSignersShareNonceSequence(t *testing.T) {
	ref, err := NewKeychain([]byte("replicas"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKeychain([]byte("replicas"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := k.NewSigner(), k.NewSigner()
	for i := 0; i < 6; i++ {
		at := time.Unix(1700000000, int64(i))
		s := a
		if i%3 == 1 {
			s = b
		}
		fresh := ref.NewSigner()
		want := &Frame{ChassisID: uint64(i), PortID: 2, TTLSecs: 120, Timestamp: fresh.SealTimestamp(at)}
		fresh.Sign(want)
		got := &Frame{ChassisID: uint64(i), PortID: 2, TTLSecs: 120, Timestamp: s.SealTimestamp(at)}
		s.Sign(got)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("probe %d: signer sealed %x, keychain %x", i, got.Marshal(), want.Marshal())
		}
		if err := b.Verify(got); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
}
