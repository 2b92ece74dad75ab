// Package sym provides the symmetric layer the dynamic protocols rely on:
// an AEAD cipher keyed from the current group key, plus the paper's
// identity-tagged key wrapping — E_K(K*||U_i) with the receiver checking
// that the sender identity decrypts correctly to validate K*.
//
// The paper's era would have used a block cipher in CBC mode with a MAC; we
// use AES-128-GCM, which preserves the accounting (one symmetric
// encryption / decryption per wrap) while being the right construction
// today. Studies [3][6] cited by the paper put symmetric costs orders of
// magnitude below modular exponentiation, which is exactly why the dynamic
// protocols win; internal/energy prices these operations accordingly.
package sym

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"idgka/internal/hashx"
)

// KeySize is the AES key size used throughout (128-bit, the paper-era
// standard).
const KeySize = 16

// Cipher is an AEAD keyed from a group key.
type Cipher struct {
	aead cipher.AEAD
}

// New derives an AES-GCM cipher from arbitrary group-key material.
func New(groupKey []byte) (*Cipher, error) {
	if len(groupKey) == 0 {
		return nil, errors.New("sym: empty group key")
	}
	key := hashx.KDF(groupKey, hashx.TagSymKey, KeySize)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sym: %w", err)
	}
	return &Cipher{aead: aead}, nil
}

// NewFromBig keys the cipher from a big.Int group key (the GKA output).
func NewFromBig(k *big.Int) (*Cipher, error) {
	if k == nil || k.Sign() == 0 {
		return nil, errors.New("sym: nil group key")
	}
	return New(k.Bytes())
}

// Seal encrypts plaintext with associated data, prefixing a random nonce.
func (c *Cipher) Seal(rnd io.Reader, plaintext, ad []byte) ([]byte, error) {
	nonce := make([]byte, c.aead.NonceSize())
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return nil, fmt.Errorf("sym: nonce: %w", err)
	}
	return c.aead.Seal(nonce, nonce, plaintext, ad), nil
}

// Open decrypts a Seal output.
func (c *Cipher) Open(ciphertext, ad []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, errors.New("sym: ciphertext too short")
	}
	pt, err := c.aead.Open(nil, ciphertext[:ns], ciphertext[ns:], ad)
	if err != nil {
		return nil, errors.New("sym: authentication failed")
	}
	return pt, nil
}

// WrapSecret implements the paper's E_K(secret || senderID) pattern used by
// the Join and Merge protocols to distribute intermediate keys. ad is
// authenticated with the ciphertext but neither encrypted nor carried in
// it: the receiver must present the same bytes to UnwrapSecret (nil when
// the wrap binds nothing else).
func (c *Cipher) WrapSecret(rnd io.Reader, secret *big.Int, senderID string, ad []byte) ([]byte, error) {
	if secret == nil {
		return nil, errors.New("sym: nil secret")
	}
	sb := secret.Bytes()
	buf := make([]byte, 4+len(sb)+len(senderID))
	buf[0] = byte(len(sb) >> 24)
	buf[1] = byte(len(sb) >> 16)
	buf[2] = byte(len(sb) >> 8)
	buf[3] = byte(len(sb))
	copy(buf[4:], sb)
	copy(buf[4+len(sb):], senderID)
	return c.Seal(rnd, buf, ad)
}

// UnwrapSecret decrypts a WrapSecret payload and performs the paper's
// identity check: the decrypted sender identity must match the expected
// one, which validates the wrapped secret's origin. ad must equal the
// bytes the wrap bound, or authentication fails.
func (c *Cipher) UnwrapSecret(ciphertext []byte, expectSender string, ad []byte) (*big.Int, error) {
	pt, err := c.Open(ciphertext, ad)
	if err != nil {
		return nil, err
	}
	if len(pt) < 4 {
		return nil, errors.New("sym: wrapped secret truncated")
	}
	sl := int(pt[0])<<24 | int(pt[1])<<16 | int(pt[2])<<8 | int(pt[3])
	if sl < 0 || 4+sl > len(pt) {
		return nil, errors.New("sym: wrapped secret malformed")
	}
	sender := string(pt[4+sl:])
	if sender != expectSender {
		return nil, fmt.Errorf("sym: identity check failed: got %q want %q", sender, expectSender)
	}
	return new(big.Int).SetBytes(pt[4 : 4+sl]), nil
}

// DefaultRand is the randomness source used by convenience wrappers.
var DefaultRand io.Reader = rand.Reader
