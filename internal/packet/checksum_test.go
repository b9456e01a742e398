package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// checksumReference is the RFC 1071 sum taken 16 bits at a time, the
// oracle for the word-wise internetChecksum.
func checksumReference(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// TestInternetChecksumMatchesReference compares the two sums on every
// length from 0 to 2048 over random, all-zero and all-0xFF buffers (the
// last maximise end-around carries) and over every unaligned start.
func TestInternetChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ones := bytes.Repeat([]byte{0xff}, 2048+8)
	zeros := make([]byte, 2048+8)
	random := make([]byte, 2048+8)
	for n := 0; n <= 2048; n++ {
		rng.Read(random)
		for name, buf := range map[string][]byte{"random": random, "0xff": ones, "zero": zeros} {
			for off := 0; off < 8; off++ {
				b := buf[off : off+n]
				if got, want := internetChecksum(b), checksumReference(b); got != want {
					t.Fatalf("%s len %d offset %d: got %#04x, want %#04x", name, n, off, got, want)
				}
			}
		}
	}
}
