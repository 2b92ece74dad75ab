package transport

import (
	"bytes"
	"runtime"
	"testing"
)

// TestReadFrameBoundsAllocation: a length prefix claiming the maximum
// frame, followed by a few bytes and EOF, fails without allocating the
// claimed size.
func TestReadFrameBoundsAllocation(t *testing.T) {
	in := append([]byte{0x04, 0, 0, 0}, make([]byte, 10)...) // 64 MiB claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("reading a 10-byte body allocated %d bytes", d)
	}
}

// TestReadFrameLargeBody: a body past the first read chunk arrives whole.
func TestReadFrameLargeBody(t *testing.T) {
	var buf bytes.Buffer
	in := &frame{Kind: kindMsg, Seq: 1, From: "a", Payload: bytes.Repeat([]byte{7}, 3*readChunk+5)}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("large body: %v", err)
	}
}

// TestReadFrameRecipientCountBounded: a recipient count larger than the
// bytes left in the frame could hold is rejected before the list is
// allocated.
func TestReadFrameRecipientCountBounded(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Kind: kindRelay, Rcpt: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The count is the 8 bytes before the last id (4-byte prefix + "a").
	at := len(raw) - 5 - 8
	copy(raw[at:], []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized recipient count accepted")
	}
}

// FuzzReadFrame: any byte sequence either fails to decode or decodes to a
// frame that re-encodes to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []*frame{
		{Kind: kindHello, Seq: 1, From: "a"},
		{Kind: kindBye, From: "a"},
		{Kind: kindMsg, Seq: 2, From: "a", To: "b", Type: "t", StateLen: 3, Payload: []byte{1, 2, 3, 4}},
		{Kind: kindRelay, Seq: 9, From: "a", Type: "t", Payload: []byte("x"), Rcpt: []string{"b", "c", "d"}},
		{Kind: kindOwn, Seq: 2, From: "a", Type: "t", StateLen: 1, Payload: []byte("y"), Rcpt: []string{"b", "c"}},
		{Kind: kindOwnFirst, Seq: 3, From: "a", To: "b", Type: "t", Payload: []byte("z"), Rcpt: []string{"b"}},
		{Kind: kindAck, Seq: 9, Rcpt: []string{"c"}},
		{Kind: kindDone, Seq: 2, From: "c"},
		{Kind: kindReject, Seq: 1, From: "a"},
		{Kind: kindDown, From: "z"},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("frame %+v re-encodes differently", fr)
		}
	})
}
