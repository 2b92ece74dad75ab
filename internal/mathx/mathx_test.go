package mathx

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRandScalarRange(t *testing.T) {
	q := big.NewInt(97)
	for i := 0; i < 200; i++ {
		v, err := RandScalar(rand.Reader, q)
		if err != nil {
			t.Fatalf("RandScalar: %v", err)
		}
		if v.Sign() <= 0 || v.Cmp(q) >= 0 {
			t.Fatalf("scalar %v out of [1, q-1]", v)
		}
	}
}

func TestRandScalarRejectsTinyModulus(t *testing.T) {
	if _, err := RandScalar(rand.Reader, big.NewInt(1)); err == nil {
		t.Fatal("expected error for modulus 1")
	}
}

func TestModInverse(t *testing.T) {
	m := big.NewInt(101)
	for i := int64(1); i < 101; i++ {
		v := big.NewInt(i)
		inv, err := ModInverse(v, m)
		if err != nil {
			t.Fatalf("inverse of %d: %v", i, err)
		}
		prod := new(big.Int).Mul(v, inv)
		if prod.Mod(prod, m).Cmp(One) != 0 {
			t.Fatalf("%d * %v != 1 mod 101", i, inv)
		}
	}
	if _, err := ModInverse(big.NewInt(5), big.NewInt(25)); err == nil {
		t.Fatal("expected error: 5 has no inverse mod 25")
	}
}

func TestLegendreSmallPrime(t *testing.T) {
	p := big.NewInt(23)
	residues := map[int64]bool{}
	for i := int64(1); i < 23; i++ {
		sq := new(big.Int).Mul(big.NewInt(i), big.NewInt(i))
		residues[sq.Mod(sq, p).Int64()] = true
	}
	for i := int64(1); i < 23; i++ {
		want := -1
		if residues[i] {
			want = 1
		}
		if got := Legendre(big.NewInt(i), p); got != want {
			t.Fatalf("Legendre(%d/23) = %d, want %d", i, got, want)
		}
	}
	if Legendre(big.NewInt(46), p) != 0 {
		t.Fatal("Legendre of multiple of p should be 0")
	}
}

func TestSqrtModBothResidueClasses(t *testing.T) {
	// p ≡ 3 mod 4 and p ≡ 1 mod 4 paths.
	for _, pv := range []int64{23, 29, 1009, 1013} {
		p := big.NewInt(pv)
		for i := int64(1); i < pv; i++ {
			a := big.NewInt(i)
			if Legendre(a, p) != 1 {
				continue
			}
			r, err := SqrtMod(a, p)
			if err != nil {
				t.Fatalf("SqrtMod(%d, %d): %v", i, pv, err)
			}
			sq := new(big.Int).Mul(r, r)
			if sq.Mod(sq, p).Cmp(a) != 0 {
				t.Fatalf("sqrt(%d) mod %d = %v does not square back", i, pv, r)
			}
		}
	}
}

func TestSqrtModNonResidueErrors(t *testing.T) {
	p := big.NewInt(23)
	if _, err := SqrtMod(big.NewInt(5), p); err == nil {
		t.Fatal("5 is a non-residue mod 23; expected error")
	}
}

func TestSqrtModLargePrime(t *testing.T) {
	p, err := RandPrime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x, err := RandScalar(rand.Reader, p)
		if err != nil {
			t.Fatal(err)
		}
		a := new(big.Int).Mul(x, x)
		a.Mod(a, p)
		r, err := SqrtMod(a, p)
		if err != nil {
			t.Fatalf("SqrtMod: %v", err)
		}
		sq := new(big.Int).Mul(r, r)
		if sq.Mod(sq, p).Cmp(a) != 0 {
			t.Fatal("root does not square back")
		}
	}
}

func TestProductMod(t *testing.T) {
	m := big.NewInt(1000)
	if ProductMod(nil, m).Cmp(One) != 0 {
		t.Fatal("empty product should be 1")
	}
	vals := []*big.Int{big.NewInt(12), big.NewInt(34), big.NewInt(56)}
	want := big.NewInt(12 * 34 * 56 % 1000)
	if got := ProductMod(vals, m); got.Cmp(want) != 0 {
		t.Fatalf("ProductMod = %v, want %v", got, want)
	}
}

// Property: for random residues a mod p, SqrtMod(a^2) squares back to a^2.
func TestSqrtModProperty(t *testing.T) {
	p := big.NewInt(1000003) // prime, ≡ 3 mod 4
	f := func(x uint32) bool {
		a := new(big.Int).SetUint64(uint64(x) + 1)
		a.Mod(a, p)
		if a.Sign() == 0 {
			a.SetInt64(1)
		}
		sq := new(big.Int).Mul(a, a)
		sq.Mod(sq, p)
		r, err := SqrtMod(sq, p)
		if err != nil {
			return false
		}
		rr := new(big.Int).Mul(r, r)
		return rr.Mod(rr, p).Cmp(sq) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: modular inverse round-trips for random units mod a prime.
func TestModInverseProperty(t *testing.T) {
	p := big.NewInt(104729)
	f := func(x uint32) bool {
		v := new(big.Int).SetUint64(uint64(x)%104728 + 1)
		inv, err := ModInverse(v, p)
		if err != nil {
			return false
		}
		prod := new(big.Int).Mul(v, inv)
		return prod.Mod(prod, p).Cmp(One) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
