package mathx

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"

	"idgka/internal/redacttest"
)

// TestScalarNeg checks Neg against big.Int.Sub for r = 0, 1, q - 2,
// q - 1, 15 and random values, including ones whose top words are zero,
// for a one-word and two multi-word orders.
func TestScalarNeg(t *testing.T) {
	for _, bits := range []int{7, 160, 1024} {
		q := new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(bits))), bits-1, 1)
		exps := []*big.Int{Zero, One, new(big.Int).Sub(q, Two), new(big.Int).Sub(q, One), big.NewInt(15)}
		for range 4 {
			e := randBelow(t, q)
			exps = append(exps, e, new(big.Int).Rsh(e, uint(bits/2)))
		}
		for _, e := range exps {
			want := new(big.Int).Sub(q, e)
			if got := mustScalar(t, q, e).Neg().BigVarTime(); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit q: q - %v = %v, want %v", bits, e, got, want)
			}
		}
	}
}

// TestDrawScalarMatchesRandScalar checks that DrawScalar reads the same
// bytes as RandScalar and yields the same value, so drawing a Scalar
// leaves every later draw of a seeded stream where it was.
func TestDrawScalarMatchesRandScalar(t *testing.T) {
	stream := make([]byte, 4096)
	if _, err := rand.Read(stream); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{2, 7, 160, 1024} {
		q := new(big.Int).SetBit(randBelow(t, new(big.Int).Lsh(One, uint(bits))), bits-1, 1)
		a, b := bytes.NewReader(stream), bytes.NewReader(stream)
		for range 8 {
			s, err := DrawScalar(a, q)
			if err != nil {
				t.Fatal(err)
			}
			v, err := RandScalar(b, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.BigVarTime(); got.Cmp(v) != 0 {
				t.Fatalf("%d-bit q: DrawScalar = %v, RandScalar = %v", bits, got, v)
			}
			if a.Len() != b.Len() {
				t.Fatalf("%d-bit q: DrawScalar left %d bytes, RandScalar %d", bits, a.Len(), b.Len())
			}
		}
	}
}

// TestNewScalarRejects checks the range NewScalar accepts: 0 ≤ v < q and
// an order of 1 to 1024 bits.
func TestNewScalarRejects(t *testing.T) {
	q := big.NewInt(97)
	big1025 := new(big.Int).Lsh(One, 1024)
	for _, c := range []struct{ q, v *big.Int }{
		{q, q}, {q, big.NewInt(-1)}, {q, nil}, {Zero, Zero}, {nil, Zero}, {big1025, One},
	} {
		if _, err := NewScalar(c.q, c.v); err == nil {
			t.Errorf("NewScalar(%v, %v) accepted", c.q, c.v)
		}
	}
	for _, v := range []*big.Int{Zero, new(big.Int).Sub(q, One)} {
		if _, err := NewScalar(q, v); err != nil {
			t.Errorf("NewScalar(%v, %v): %v", q, v, err)
		}
	}
	if _, err := NewScalar(new(big.Int).Sub(big1025, One), One); err != nil {
		t.Errorf("1024-bit order: %v", err)
	}
}

// TestScalarFormatRedacts prints a Scalar with every common verb, inside
// a struct and inside a wrapped error, and checks that no word of its
// value, in decimal or hex, appears.
func TestScalarFormatRedacts(t *testing.T) {
	q := new(big.Int).Lsh(One, 1000)
	v := new(big.Int).Sub(q, big.NewInt(0x1234567))
	s := mustScalar(t, q, v)
	out := []string{
		fmt.Sprintf("%v", s), fmt.Sprintf("%d", s), fmt.Sprintf("%x", s),
		fmt.Sprintf("%X", s), fmt.Sprintf("%s", s), fmt.Sprintf("%#v", s),
		fmt.Sprintf("%+v", struct{ R Scalar }{s}), fmt.Sprint(s), fmt.Sprintf("%v", &s),
	}
	err := fmt.Errorf("round 2: %w", fmt.Errorf("exponent %v: %w", s, io.ErrUnexpectedEOF))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("the wrapped error is lost")
	}
	out = append(out, err.Error())
	var secrets []string
	for _, w := range v.Bits() {
		secrets = append(secrets, fmt.Sprintf("%d", w), fmt.Sprintf("%x", w), fmt.Sprintf("%X", w))
	}
	for _, o := range out {
		if !strings.Contains(o, "redacted") {
			t.Errorf("%q: no redaction", o)
		}
		for _, w := range secrets {
			if strings.Contains(o, w) {
				t.Errorf("%q shows the word %s of the value", o, w)
			}
		}
	}
}

// TestRedaction formats a Scalar, an Elem, a full RSAParams and a
// fixed-base table of a secret base with every verb, at top level, in
// exported and unexported fields, in a slice and in a wrapped error, and
// looks for every word and limb of their secrets.
func TestRedaction(t *testing.T) {
	rp, err := GenerateRSAParams(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	mo := rp.Mont()
	v := randBelow(t, rp.N)
	s := mustScalar(t, rp.N, v)
	redacttest.Check(t, "Scalar", s, v)
	redacttest.Check(t, "Elem", mo.ToMont(v), redacttest.Montgomery(v, rp.N)...)
	redacttest.Check(t, "Scalar and Elem", &struct {
		r Scalar
		e Elem
		R []Scalar
		E map[string]Elem
	}{s, mo.ToMontScalar(s), []Scalar{s}, map[string]Elem{"e": mo.ToMont(v)}}, redacttest.Montgomery(v, rp.N)...)
	redacttest.Check(t, "RSAParams", rp, rp.P.BigVarTime(), rp.Q.BigVarTime(), rp.D.BigVarTime())
	tab, err := NewFixedBaseTable(v, mo, 160)
	if err != nil {
		t.Fatal(err)
	}
	redacttest.Check(t, "FixedBaseTable", tab, redacttest.Montgomery(v, rp.N)...)
}

// TestScalarCopyAndNegLeaveOriginal checks that copies of a Scalar, which
// share its words, and its negation leave its value as it was.
func TestScalarCopyAndNegLeaveOriginal(t *testing.T) {
	q := randBelow(t, new(big.Int).Lsh(One, 1024))
	v := randBelow(t, q)
	s := mustScalar(t, q, v)
	c := s
	neg := c.Neg()
	negAgain := neg.Neg()
	for name, x := range map[string]Scalar{"original": s, "copy": c} {
		if got := x.BigVarTime(); got.Cmp(v) != 0 {
			t.Errorf("%s after Neg: %v, want %v", name, got, v)
		}
	}
	if got, want := neg.BigVarTime(), new(big.Int).Sub(q, v); got.Cmp(want) != 0 {
		t.Errorf("Neg: %v, want %v", got, want)
	}
	if got := negAgain.BigVarTime(); got.Cmp(v) != 0 {
		t.Errorf("Neg of Neg: %v, want %v", got, v)
	}
	big := s.BigVarTime()
	big.Add(big, One)
	if got := s.BigVarTime(); got.Cmp(v) != 0 {
		t.Errorf("after writing BigVarTime's result: %v, want %v", got, v)
	}
}
