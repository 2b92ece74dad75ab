package sym

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func testCipher(t testing.TB) *Cipher {
	t.Helper()
	c, err := NewFromBig(big.NewInt(0x1122334455667788))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSealOpenRoundTrip(t *testing.T) {
	c := testCipher(t)
	pt := []byte("the quick brown fox")
	ad := []byte("round-3")
	ct, err := c.Seal(rand.Reader, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Open(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip mismatch")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	c := testCipher(t)
	ct, _ := c.Seal(rand.Reader, []byte("secret"), nil)
	ct[len(ct)-1] ^= 1
	if _, err := c.Open(ct, nil); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestOpenRejectsWrongAD(t *testing.T) {
	c := testCipher(t)
	ct, _ := c.Seal(rand.Reader, []byte("secret"), []byte("ad1"))
	if _, err := c.Open(ct, []byte("ad2")); err == nil {
		t.Fatal("wrong AD accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	c1 := testCipher(t)
	c2, _ := NewFromBig(big.NewInt(999))
	ct, _ := c1.Seal(rand.Reader, []byte("secret"), nil)
	if _, err := c2.Open(ct, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	c := testCipher(t)
	if _, err := c.Open([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestWrapUnwrapSecret(t *testing.T) {
	c := testCipher(t)
	secret := new(big.Int).Lsh(big.NewInt(0xabcdef), 500)
	ct, err := c.WrapSecret(rand.Reader, secret, "U1", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.UnwrapSecret(ct, "U1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("secret mismatch")
	}
}

func TestUnwrapIdentityCheck(t *testing.T) {
	// The paper's validity check: decrypted identity must match.
	c := testCipher(t)
	ct, _ := c.WrapSecret(rand.Reader, big.NewInt(42), "U1", nil)
	if _, err := c.UnwrapSecret(ct, "U2", nil); err == nil {
		t.Fatal("identity mismatch accepted")
	}
}

// TestWrapSecretBindsAD checks that a wrap opens only with the associated
// data it was sealed with, and adds no bytes for it.
func TestWrapSecretBindsAD(t *testing.T) {
	c := testCipher(t)
	ad := []byte("state tables")
	ct, err := c.WrapSecret(rand.Reader, big.NewInt(42), "U1", ad)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.WrapSecret(rand.Reader, big.NewInt(42), "U1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(plain) {
		t.Fatalf("bound wrap is %d bytes, unbound %d", len(ct), len(plain))
	}
	if got, err := c.UnwrapSecret(ct, "U1", ad); err != nil || got.Int64() != 42 {
		t.Fatalf("bound wrap did not open: %v", err)
	}
	for _, wrong := range [][]byte{nil, []byte("state tablez"), ad[:5]} {
		if _, err := c.UnwrapSecret(ct, "U1", wrong); err == nil {
			t.Fatalf("wrap opened with associated data %q", wrong)
		}
	}
}

func TestWrapZeroAndEmptyEdge(t *testing.T) {
	c := testCipher(t)
	ct, err := c.WrapSecret(rand.Reader, big.NewInt(0), "U1", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.UnwrapSecret(ct, "U1", nil)
	if err != nil || got.Sign() != 0 {
		t.Fatal("zero secret round trip failed")
	}
	if _, err := c.WrapSecret(rand.Reader, nil, "U1", nil); err == nil {
		t.Fatal("nil secret accepted")
	}
}

func TestNewRejectsEmptyKey(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := NewFromBig(nil); err == nil {
		t.Fatal("nil big key accepted")
	}
	if _, err := NewFromBig(big.NewInt(0)); err == nil {
		t.Fatal("zero big key accepted")
	}
}

func TestDistinctKeysFromDistinctGroupKeys(t *testing.T) {
	c1, _ := NewFromBig(big.NewInt(1))
	c2, _ := NewFromBig(big.NewInt(2))
	ct, _ := c1.Seal(rand.Reader, []byte("x"), nil)
	if _, err := c2.Open(ct, nil); err == nil {
		t.Fatal("different group keys derived the same cipher")
	}
}
