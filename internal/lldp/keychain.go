package lldp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"time"
)

// Timestamp/auth errors callers may match.
var (
	ErrBadAuth      = errors.New("lldp: HMAC verification failed")
	ErrBadTimestamp = errors.New("lldp: timestamp TLV undecryptable")
)

// Keychain holds the controller-owned secrets used to authenticate LLDP
// frames and to seal departure timestamps; a Signer (NewSigner) applies
// them. End hosts (and therefore attackers) never hold a Keychain; they can
// only replay TLVs byte-for-byte, which is exactly the capability the
// paper's relay attacks assume.
type Keychain struct {
	hmacKey []byte
	gcm     cipher.AEAD
	nonce   uint64 // monotonic nonce counter for deterministic sealing
}

// NewKeychain derives HMAC and AES-GCM keys from a secret. The secret may
// be any length; it is stretched through SHA-256.
func NewKeychain(secret []byte) (*Keychain, error) {
	sum := sha256.Sum256(secret)
	block, err := aes.NewCipher(sum[:])
	if err != nil {
		return nil, fmt.Errorf("lldp: derive AES key: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("lldp: init GCM: %w", err)
	}
	mac := sha256.Sum256(append([]byte("hmac:"), secret...))
	return &Keychain{hmacKey: mac[:], gcm: gcm}, nil
}

// Signer applies one Keychain's keys: it signs and verifies frames and
// seals and opens timestamps, reusing one HMAC state and its scratch
// buffers, so once warm none of its methods allocate. A Signer is not
// safe for concurrent use; each controller owns one. Signers of one
// Keychain draw nonces from the keychain's single counter, so replicas
// that share a keychain seal exactly the bytes one signer would.
type Signer struct {
	k     *Keychain
	mac   hash.Hash
	in    []byte  // authentication input
	auth  []byte  // Sign's output, aliased by the signed frame
	sum   []byte  // Verify's recomputed signature
	ts    []byte  // SealTimestamp's output
	plain [8]byte // SealTimestamp's plaintext
	open  []byte  // OpenTimestamp's plaintext
}

// NewSigner returns a Signer for the keychain's keys.
func (k *Keychain) NewSigner() *Signer {
	return &Signer{k: k, mac: hmac.New(sha256.New, k.hmacKey)}
}

// digest computes the frame's HMAC into dst's storage.
func (s *Signer) digest(f *Frame, dst []byte) []byte {
	s.in = binary.BigEndian.AppendUint64(s.in[:0], f.ChassisID)
	s.in = binary.BigEndian.AppendUint32(s.in, f.PortID)
	s.in = append(s.in, f.Timestamp...)
	s.mac.Reset()
	s.mac.Write(s.in)
	return s.mac.Sum(dst[:0])
}

// Sign computes and attaches the HMAC TLV. It must be called after the
// timestamp TLV (if any) is attached, since the signature covers it.
// f.Auth aliases the signer's scratch: it is valid until the next Sign.
func (s *Signer) Sign(f *Frame) {
	s.auth = s.digest(f, s.auth)
	f.Auth = s.auth
}

// Verify checks the frame's HMAC TLV. It returns ErrBadAuth for a missing
// or non-matching signature.
func (s *Signer) Verify(f *Frame) error {
	if len(f.Auth) == 0 {
		return fmt.Errorf("%w: no auth TLV", ErrBadAuth)
	}
	s.sum = s.digest(f, s.sum)
	if !hmac.Equal(s.sum, f.Auth) {
		return ErrBadAuth
	}
	return nil
}

// SealTimestamp encrypts a departure time into TLV ciphertext: the nonce
// followed by the sealed time. Nonces are drawn from the keychain's
// monotonic counter, which keeps simulation runs deterministic while
// never reusing a nonce under one key. The result aliases the signer's
// scratch: it is valid until the next SealTimestamp.
func (s *Signer) SealTimestamp(t time.Time) []byte {
	k := s.k
	ns := k.gcm.NonceSize()
	s.ts = slices.Grow(s.ts[:0], ns+len(s.plain)+k.gcm.Overhead())[:ns]
	clear(s.ts)
	binary.BigEndian.PutUint64(s.ts[ns-8:], k.nonce)
	k.nonce++
	binary.BigEndian.PutUint64(s.plain[:], uint64(t.UnixNano()))
	s.ts = k.gcm.Seal(s.ts, s.ts[:ns], s.plain[:], nil)
	return s.ts
}

// OpenTimestamp decrypts TLV ciphertext back into the departure time.
func (s *Signer) OpenTimestamp(ct []byte) (time.Time, error) {
	ns := s.k.gcm.NonceSize()
	if len(ct) < ns {
		return time.Time{}, fmt.Errorf("%w: short ciphertext", ErrBadTimestamp)
	}
	plain, err := s.k.gcm.Open(s.open[:0], ct[:ns], ct[ns:], nil)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: %v", ErrBadTimestamp, err)
	}
	s.open = plain
	if len(plain) != 8 {
		return time.Time{}, fmt.Errorf("%w: bad plaintext length %d", ErrBadTimestamp, len(plain))
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(plain))), nil
}
