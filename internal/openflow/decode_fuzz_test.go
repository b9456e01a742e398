package openflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzOpenFlowDecode is a differential oracle for the in-place decoders:
// for any input, Decode, a reused Decoder and the copying Unmarshal must
// agree on the xid, the message and the error, and a message Unmarshal
// returned must not change when its input buffer is overwritten. The
// seed corpus under testdata holds PacketIn and PacketOut messages
// captured from the control channels of a Figure 9 TOPOGUARD+ run: LLDP
// probes, control-RTT probes, flooded and forwarded IPv4 frames.
func FuzzOpenFlowDecode(f *testing.F) {
	f.Add(Marshal(1, &EchoRequest{Data: []byte("ping")}))
	f.Add(Marshal(2, &FlowMod{Command: FlowAdd, Actions: []Action{Output(1), OutputFlood()}}))
	var dec Decoder
	f.Fuzz(func(t *testing.T, b []byte) {
		xid, m, err := Decode(bytes.Clone(b))

		// The Decoder first decodes something else, so its reused
		// messages carry stale state into this decode.
		_, _, _ = dec.Decode(Marshal(9, &PacketOut{Actions: []Action{Output(1), Output(2), Output(3)}, Data: []byte{1, 2, 3}}))
		_, _, _ = dec.Decode(Marshal(9, &PacketIn{InPort: 4, Data: []byte{4, 5}}))
		dxid, dm, derr := dec.Decode(bytes.Clone(b))
		same(t, "Decoder.Decode", xid, m, err, dxid, dm, derr)

		owned := bytes.Clone(b)
		uxid, um, uerr := Unmarshal(owned)
		for i := range owned {
			owned[i] ^= 0xff
		}
		same(t, "Unmarshal", xid, m, err, uxid, um, uerr)
	})
}

// same fails the test unless the second decode result equals the first.
func same(t *testing.T, name string, xid uint32, m Message, err error, gotXID uint32, got Message, gotErr error) {
	t.Helper()
	if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, Decode: %v", name, gotErr, err)
	}
	if gotXID != xid || !reflect.DeepEqual(got, m) {
		t.Fatalf("%s: xid %d message %#v, Decode: xid %d message %#v", name, gotXID, got, xid, m)
	}
}
