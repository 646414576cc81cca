// Package vgcrypt provides the cryptographic primitives used by the
// Virtual Ghost VM and by ghosting applications: authenticated
// encryption (AES-GCM), checksums, and signing key pairs (Ed25519).
// Everything is deterministic given a caller-supplied nonce source so
// the simulation is reproducible.
//
// The paper lets each application choose its own algorithms and key
// lengths (§3.3); this package is the default suite the reproduction's
// libc and VM use.
package vgcrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
)

// KeySize is the symmetric key size (AES-256).
const KeySize = 32

// NonceSize is the AES-GCM nonce size.
const NonceSize = 12

// SigSize is the length of a KeyPair signature (Ed25519).
const SigSize = ed25519.SignatureSize

// ErrBadKey reports a key of the wrong length.
var ErrBadKey = errors.New("vgcrypt: key must be 32 bytes")

// ErrCorrupt reports failed authentication on open.
var ErrCorrupt = errors.New("vgcrypt: ciphertext corrupt or wrong key")

// NonceSource produces unique nonces. The VM's is backed by the
// hardware RNG plus a counter; applications derive theirs from the
// trusted random instruction.
type NonceSource struct {
	counter uint64
	salt    [4]byte
}

// NewNonceSource creates a nonce source from 4 bytes of salt.
func NewNonceSource(salt [4]byte) *NonceSource {
	return &NonceSource{salt: salt}
}

// Counter returns how many nonces have been issued. Snapshot/restore
// persists it so a restored VM never reissues a nonce it already used.
func (n *NonceSource) Counter() uint64 { return n.counter }

// SetCounter restores the issue counter from a snapshot.
func (n *NonceSource) SetCounter(v uint64) { n.counter = v }

// Next returns the next unique nonce.
func (n *NonceSource) Next() [NonceSize]byte {
	var out [NonceSize]byte
	copy(out[:4], n.salt[:])
	n.counter++
	v := n.counter
	for i := 0; i < 8; i++ {
		out[4+i] = byte(v >> (8 * i))
	}
	return out
}

// Seal encrypts and authenticates plaintext with AES-256-GCM. The
// returned blob is nonce || ciphertext+tag and is self-contained.
func Seal(key []byte, nonce [NonceSize]byte, plaintext []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, NonceSize, NonceSize+len(plaintext)+aead.Overhead())
	copy(out, nonce[:])
	return aead.Seal(out, nonce[:], plaintext, nil), nil
}

// Open authenticates and decrypts a blob produced by Seal.
func Open(key []byte, blob []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	if len(blob) < NonceSize+aead.Overhead() {
		return nil, ErrCorrupt
	}
	pt, err := aead.Open(nil, blob[:NonceSize], blob[NonceSize:], nil)
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
}

// Overhead returns the ciphertext expansion of Seal.
func Overhead() int { return NonceSize + 16 }

func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w (got %d)", ErrBadKey, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Checksum returns the SHA-256 digest of b. Ghosting applications store
// an encrypted checksum beside file contents so that OS tampering is
// detected on read-back (paper §3.3).
func Checksum(b []byte) [32]byte { return sha256.Sum256(b) }

// KeyPair is a signing key pair (Ed25519). The Virtual Ghost VM holds
// one per machine; its private half is sealed by the TPM storage key.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// DeriveKeyPair deterministically derives a key pair from 32 bytes of
// seed material (e.g. hardware entropy at install time).
func DeriveKeyPair(seed [32]byte) KeyPair {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
}

// Sign signs msg.
func (kp KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.Private, msg)
}

// VerifySig verifies sig over msg against a public key.
func VerifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// DeriveKey derives a subkey from parent key material and a label
// (HKDF-flavoured single-step expansion: SHA-256(parent || label)).
func DeriveKey(parent []byte, label string) []byte {
	h := sha256.New()
	h.Write(parent)
	h.Write([]byte(label))
	return h.Sum(nil)
}

// SealWithKeyAndCounter is a convenience for callers that keep their own
// nonce counters: it builds the nonce from the counter and seals.
func SealWithKeyAndCounter(key []byte, counter uint64, plaintext []byte) ([]byte, error) {
	var nonce [NonceSize]byte
	for i := 0; i < 8; i++ {
		nonce[i] = byte(counter >> (8 * i))
	}
	return Seal(key, nonce, plaintext)
}
