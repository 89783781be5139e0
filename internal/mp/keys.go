// Package mp implements CryptDB's multi-principal mode (§4): chaining
// encryption keys to user passwords so that each data item can be decrypted
// only through a chain of keys rooted in the password of a user with access
// to it. It consumes the schema annotations of §4.1 (PRINCTYPE, ENC FOR,
// SPEAKS FOR ... IF), maintains the server-side key tables of §4.2
// (access_keys, public_keys, external_keys), and enforces that an adversary
// holding everything on the servers — but no logged-in user's password —
// can decrypt nothing.
package mp

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"

	"repro/internal/crypto/prf"
)

const (
	// symKeySize is the size of every principal's symmetric key.
	symKeySize = 32
	// x25519Size is the size of an X25519 public or private key.
	x25519Size = 32
)

// kdf derives a key-wrapping key from an external user's password (§4.2:
// external principals' keys are encrypted with the principal's password).
// Iterated hashing stands in for a tunable password KDF.
func kdf(password string, salt []byte) []byte {
	k := prf.Sum(salt, []byte("cryptdb-password-kdf"), []byte(password))
	for i := 0; i < 1000; i++ {
		k = prf.Sum(k, salt)
	}
	return k
}

// wrapSym encrypts payload under a symmetric key with AES-256-GCM.
func wrapSym(key, payload []byte) ([]byte, error) {
	block, err := aes.NewCipher(prf.Sum(key, []byte("wrap")))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return append(nonce, gcm.Seal(nil, nonce, payload, nil)...), nil
}

// unwrapSym inverts wrapSym.
func unwrapSym(key, blob []byte) ([]byte, error) {
	block, err := aes.NewCipher(prf.Sum(key, []byte("wrap")))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, errors.New("mp: wrapped blob too short")
	}
	pt, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("mp: unwrap failed: %w", err)
	}
	return pt, nil
}

// wrapAsym seals payload to a principal's X25519 public key — used when
// the grantee is offline at grant time (§4.2: "CryptDB looks up the public
// key of the principal ... and encrypts message 5's key using user 1's
// public key"). The blob is ephPub ‖ wrapSym(sealKey(...), payload).
func wrapAsym(pub *ecdh.PublicKey, payload []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	sealed, err := wrapSym(sealKey(shared, ephPub, pub.Bytes()), payload)
	if err != nil {
		return nil, err
	}
	return append(ephPub, sealed...), nil
}

// unwrapAsym inverts wrapAsym. ECDH fails on a low-order ephemeral key
// (the shared secret would be all zeros), so such a blob is an error.
func unwrapAsym(priv *ecdh.PrivateKey, blob []byte) ([]byte, error) {
	if len(blob) < x25519Size {
		return nil, errors.New("mp: sealed blob too short")
	}
	ephPub := blob[:x25519Size]
	eph, err := ecdh.X25519().NewPublicKey(ephPub)
	if err != nil {
		return nil, fmt.Errorf("mp: asymmetric unwrap failed: %w", err)
	}
	shared, err := priv.ECDH(eph)
	if err != nil {
		return nil, fmt.Errorf("mp: asymmetric unwrap failed: %w", err)
	}
	return unwrapSym(sealKey(shared, ephPub, priv.PublicKey().Bytes()), blob[x25519Size:])
}

// sealKey derives a sealed box's wrapping key from the ephemeral-static
// ECDH secret, bound to both public keys.
func sealKey(shared, ephPub, recipientPub []byte) []byte {
	return prf.Sum(shared, ephPub, recipientPub, []byte("cryptdb-asym"))
}

func newSymKey() ([]byte, error) {
	k := make([]byte, symKeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, err
	}
	return k, nil
}
