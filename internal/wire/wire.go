// Package wire implements the compact deterministic binary encoding used
// for every protocol message: length-prefixed byte strings, big integers
// and unsigned varints. Byte counts on the simulated radio are derived from
// these encodings, so the format is intentionally minimal — a 4-byte length
// prefix per field, no schema overhead.
package wire

import (
	"encoding/binary"
	"errors"
	"math/big"
)

// Buffer accumulates an encoded message.
type Buffer struct {
	b []byte
}

// NewBuffer returns an empty encoder.
func NewBuffer() *Buffer { return &Buffer{} }

// NewSizedBuffer returns an empty encoder with room for n bytes, so a
// message of known size is encoded in one allocation.
func NewSizedBuffer(n int) *Buffer { return &Buffer{b: make([]byte, 0, n)} }

// Bytes returns the encoded message.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the current encoded size.
func (w *Buffer) Len() int { return len(w.b) }

// PutLen appends the 4-byte length prefix of an n-byte field whose bytes
// the caller appends next; PutBytes is PutLen and the bytes in one call.
func (w *Buffer) PutLen(n int) *Buffer {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(n))
	return w
}

// PutBytes appends a length-prefixed byte string.
func (w *Buffer) PutBytes(p []byte) *Buffer {
	w.PutLen(len(p))
	w.b = append(w.b, p...)
	return w
}

// PutString appends a length-prefixed string.
func (w *Buffer) PutString(s string) *Buffer { return w.PutBytes([]byte(s)) }

// PutBig appends a length-prefixed big integer (minimal big-endian
// magnitude; nil and zero encode identically as empty).
func (w *Buffer) PutBig(v *big.Int) *Buffer {
	if v == nil {
		return w.PutBytes(nil)
	}
	return w.PutBytes(v.Bytes())
}

// PutUint appends a fixed 8-byte unsigned integer.
func (w *Buffer) PutUint(v uint64) *Buffer {
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], v)
	w.b = append(w.b, l[:]...)
	return w
}

// Reader decodes a message produced by Buffer.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps an encoded message.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decoding error encountered.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = errors.New("wire: truncated message")
	}
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	if r.off+4 > len(r.b) {
		r.fail()
		return nil
	}
	n := int(binary.BigEndian.Uint32(r.b[r.off:]))
	r.off += 4
	if n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Big reads a length-prefixed big integer.
func (r *Reader) Big() *big.Int {
	p := r.Bytes()
	if r.err != nil {
		return nil
	}
	return new(big.Int).SetBytes(p)
}

// Rest reads every byte left in the message.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	out := r.b[r.off:]
	r.off = len(r.b)
	return out
}

// Uint reads a fixed 8-byte unsigned integer.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Close verifies the message was fully and cleanly consumed.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return errors.New("wire: trailing bytes")
	}
	return nil
}
