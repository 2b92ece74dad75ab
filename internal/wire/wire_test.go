package wire

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	v := new(big.Int).Lsh(big.NewInt(0x1234), 300)
	buf := NewBuffer().
		PutString("U1").
		PutBig(v).
		PutBytes([]byte{1, 2, 3}).
		PutUint(42).
		Bytes()
	r := NewReader(buf)
	if got := r.String(); got != "U1" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Big(); got.Cmp(v) != 0 {
		t.Fatalf("big mismatch")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes mismatch")
	}
	if got := r.Uint(); got != 42 {
		t.Fatalf("uint = %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestNilAndZeroBig(t *testing.T) {
	buf := NewBuffer().PutBig(nil).PutBig(big.NewInt(0)).Bytes()
	r := NewReader(buf)
	if r.Big().Sign() != 0 || r.Big().Sign() != 0 {
		t.Fatal("nil/zero big should decode as 0")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	buf := NewBuffer().PutString("hello").PutUint(7).Bytes()
	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(buf[:cut])
		_ = r.String()
		r.Uint()
		if r.Close() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	buf := append(NewBuffer().PutString("x").Bytes(), 0xff)
	r := NewReader(buf)
	_ = r.String()
	if r.Close() == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestRestConsumesTheTail(t *testing.T) {
	buf := append(NewBuffer().PutString("x").Bytes(), 1, 2, 3)
	r := NewReader(buf)
	_ = r.String()
	if got := r.Rest(); string(got) != "\x01\x02\x03" {
		t.Fatalf("Rest = %v, want the three trailing bytes", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after Rest: %v", err)
	}
	if r := NewReader(nil); r.Bytes() != nil || r.Rest() != nil {
		t.Fatal("Rest after an error should return nil")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader([]byte{0, 0})
	_ = r.Bytes() // fails: truncated length
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if r.Big() != nil {
		t.Fatal("reads after error should return zero values")
	}
	if got := r.Uint(); got != 0 {
		t.Fatal("uint after error should be 0")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte, u uint64, vbytes []byte) bool {
		v := new(big.Int).SetBytes(vbytes)
		buf := NewBuffer().PutString(s).PutBytes(b).PutUint(u).PutBig(v).Bytes()
		r := NewReader(buf)
		gs := r.String()
		gb := r.Bytes()
		gu := r.Uint()
		gv := r.Big()
		if r.Close() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) && gu == u && gv.Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLen(t *testing.T) {
	b := NewBuffer()
	if b.Len() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	b.PutString("ab")
	if b.Len() != 6 { // 4-byte prefix + 2
		t.Fatalf("Len = %d, want 6", b.Len())
	}
}
