package lldp

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzLLDPDecode is a differential oracle for the in-place decoder: for
// any input, Decode and the copying Unmarshal must agree on the frame and
// the error, including the HMAC and timestamp TLVs and what a keychain
// makes of them, and a frame Unmarshal returned must not change when its
// input buffer is overwritten. The seed corpus under testdata holds
// signed, timestamped probes captured from a Figure 9 TOPOGUARD+ run.
func FuzzLLDPDecode(f *testing.F) {
	k, err := NewKeychain([]byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	s := k.NewSigner()
	probe := &Frame{ChassisID: 3, PortID: 1, TTLSecs: 120, Timestamp: s.SealTimestamp(time.Unix(5, 0))}
	s.Sign(probe)
	f.Add(probe.Marshal())
	f.Add((&Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		frame, err := Decode(bytes.Clone(b))
		owned := bytes.Clone(b)
		got, gotErr := Unmarshal(owned)
		for i := range owned {
			owned[i] ^= 0xff
		}
		if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
			t.Fatalf("Unmarshal error %v, Decode: %v", gotErr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*got, frame) {
			t.Fatalf("Unmarshal %#v, Decode %#v", *got, frame)
		}
		if a, b := s.Verify(got), s.Verify(&frame); (a == nil) != (b == nil) {
			t.Fatalf("Verify: Unmarshal %v, Decode %v", a, b)
		}
		ta, ea := s.OpenTimestamp(got.Timestamp)
		tb, eb := s.OpenTimestamp(frame.Timestamp)
		if !ta.Equal(tb) || (ea == nil) != (eb == nil) {
			t.Fatalf("OpenTimestamp: Unmarshal %v %v, Decode %v %v", ta, ea, tb, eb)
		}
	})
}
