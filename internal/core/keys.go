package core

import (
	"bytes"
	"crypto/sha256"
	"errors"

	"repro/internal/vgcrypt"
)

// Binary is an application's object file as extended by Virtual Ghost
// (paper §4.4): the program image plus a dedicated section holding the
// application's private key encrypted under the Virtual Ghost machine
// key, the whole signed at install time by a trusted administrator so
// the OS cannot substitute different code for the key.
type Binary struct {
	// Name is the program name.
	Name string
	// Image is the program image (its digest stands in for the code
	// pages of a real executable).
	Image []byte
	// KeySection is the application key sealed under the VM's sealing
	// key.
	KeySection []byte
	// Signature is the installer's signature over Name+Image+KeySection
	// with the Virtual Ghost machine key pair.
	Signature []byte
}

// digest computes the signing payload for a binary.
func (b *Binary) digest() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(b.Name))
	h.Write([]byte{0})
	h.Write(b.Image)
	h.Write(b.KeySection)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// ErrBadBinary is returned when a binary's signature or key section
// fails validation: Virtual Ghost "refuses to prepare the native code
// for execution" (paper §4.5), so the program never starts.
var ErrBadBinary = errors.New("core: binary signature or key section invalid; refusing to prepare for execution")

// keyChain is the VM's TPM-rooted key material (paper §4.4):
//
//	TPM storage key ⇒ Virtual Ghost private key ⇒ application keys.
type keyChain struct {
	pair    vgcrypt.KeyPair
	sealKey []byte // symmetric key for key sections and swap
	nonces  *vgcrypt.NonceSource
	// verified is the verified-binary table (DESIGN.md §8): host-only
	// memory of the last signature that passed under pair. It holds no
	// virtual state, and no image carries it.
	verified verifiedBinary
}

// verifiedBinary is the verified-binary table's one entry: a binary
// digest and the signature that verified over it. The empty entry
// matches nothing: a binary whose digest is all zeros would take a
// SHA-256 preimage.
type verifiedBinary struct {
	digest [sha256.Size]byte
	sig    [vgcrypt.SigSize]byte
}

func newKeyChain(tpmStorage [32]byte) *keyChain {
	seedBytes := vgcrypt.DeriveKey(tpmStorage[:], "virtual-ghost-private-key")
	var seed [32]byte
	copy(seed[:], seedBytes)
	sealKey := vgcrypt.DeriveKey(seedBytes, "key-section-seal")
	var salt [4]byte
	copy(salt[:], sealKey[:4])
	return &keyChain{
		pair:    vgcrypt.DeriveKeyPair(seed),
		sealKey: sealKey,
		nonces:  vgcrypt.NewNonceSource(salt),
	}
}

// sealAppKey encrypts an application key for embedding in a binary.
func (kc *keyChain) sealAppKey(appKey []byte) ([]byte, error) {
	return vgcrypt.Seal(kc.sealKey, kc.nonces.Next(), appKey)
}

// openAppKey decrypts a binary's key section.
func (kc *keyChain) openAppKey(section []byte) ([]byte, error) {
	return vgcrypt.Open(kc.sealKey, section)
}

// signBinary signs a binary in place (the trusted-installer path).
func (kc *keyChain) signBinary(b *Binary) {
	d := b.digest()
	b.Signature = kc.pair.Sign(d[:])
}

// verifyBinary checks a binary's installer signature. The digest is
// recomputed from the binary's current bytes on every call; the ed25519
// check is skipped only when that digest and the signature bytes equal
// the last pair that passed under this key chain. Verification is a
// pure function of (key, digest, signature), so a hit returns exactly
// what a fresh check would. Only passing pairs enter the table.
func (kc *keyChain) verifyBinary(b *Binary) bool {
	d := b.digest()
	if kc.verified.digest == d && bytes.Equal(kc.verified.sig[:], b.Signature) {
		return true
	}
	if !vgcrypt.VerifySig(kc.pair.Public, d[:], b.Signature) {
		return false
	}
	// A signature that verified is SigSize bytes long.
	kc.verified = verifiedBinary{digest: d, sig: [vgcrypt.SigSize]byte(b.Signature)}
	return true
}

// swapKey derives the key used to seal swapped-out ghost pages.
func (kc *keyChain) swapKey() []byte {
	return vgcrypt.DeriveKey(kc.sealKey, "ghost-swap")
}
