package lldp

import (
	"testing"
	"testing/quick"
	"time"
)

// TestUnmarshalNeverPanics: LLDP arrives from the dataplane — i.e. from
// attackers — so the parser must fail closed on any input.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestMutatedFramesNeverVerify flips bytes of a signed frame; no mutation
// that still parses may pass signature verification.
func TestMutatedFramesNeverVerify(t *testing.T) {
	k, err := NewKeychain([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSigner()
	base := &Frame{ChassisID: 7, PortID: 9, TTLSecs: 120}
	base.Timestamp = s.SealTimestamp(time.Unix(100, 0))
	s.Sign(base)
	wire := base.Marshal()

	f := func(pos uint16, bit uint8) bool {
		mut := make([]byte, len(wire))
		copy(mut, wire)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		got, err := Unmarshal(mut)
		if err != nil {
			return true // failed to parse: fine
		}
		if err := s.Verify(got); err == nil {
			// Verification passing is only acceptable if the mutation
			// did not change any authenticated content.
			same := got.ChassisID == base.ChassisID && got.PortID == base.PortID &&
				string(got.Timestamp) == string(base.Timestamp) &&
				string(got.Auth) == string(base.Auth)
			if !same {
				t.Errorf("mutated frame verified: pos=%d bit=%d", pos, bit)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTimestampNeverPanics feeds arbitrary ciphertext to the
// timestamp decryptor.
func TestOpenTimestampNeverPanics(t *testing.T) {
	k, err := NewKeychain([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSigner()
	f := func(ct []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", ct, r)
			}
		}()
		_, _ = s.OpenTimestamp(ct)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
