package remote

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameAllocs: reading a frame allocates its payload and nothing else,
// and writing one into a buffered writer allocates nothing — the length
// prefix lives in the reader's and the writer's own buffers.
func TestFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 100)
	var stream bytes.Buffer
	for i := 0; i < 200; i++ {
		if err := WriteFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream.Bytes()))
	if got := testing.AllocsPerRun(100, func() {
		if p, err := ReadFrame(br); err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("ReadFrame = %d bytes, %v", len(p), err)
		}
	}); got != 1 {
		t.Errorf("ReadFrame allocates %v times per frame, want 1 (the payload)", got)
	}
	bw := bufio.NewWriter(io.Discard)
	if got := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteFrame into a bufio.Writer allocates %v times per frame, want 0", got)
	}
}

// TestFrameRoundTrip: every writer shape frames the same bytes — a buffered
// writer, one left with too little room for a length prefix (16 bytes, the
// smallest bufio allows, holds 15 after the first three frames), a
// bytes.Buffer and a plain io.Writer — and ReadFrame tells a clean end of
// stream from one cut inside a frame.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {1}, {2, 3}, bytes.Repeat([]byte{7}, 30)}
	var want []byte
	for _, p := range payloads {
		want, _ = AppendFrame(want, p)
	}
	for _, tc := range []struct {
		name string
		w    func(*bytes.Buffer) io.Writer
	}{
		{"bufio", func(b *bytes.Buffer) io.Writer { return bufio.NewWriter(b) }},
		{"bufio, tight", func(b *bytes.Buffer) io.Writer { return bufio.NewWriterSize(b, 16) }},
		{"bytes.Buffer", func(b *bytes.Buffer) io.Writer { return b }},
		{"plain", func(b *bytes.Buffer) io.Writer { return struct{ io.Writer }{b} }},
	} {
		var out bytes.Buffer
		w := tc.w(&out)
		for _, p := range payloads {
			if err := WriteFrame(w, p); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if bw, ok := w.(*bufio.Writer); ok {
			_ = bw.Flush()
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s framed %x, want %x", tc.name, out.Bytes(), want)
		}
	}
	if err := WriteFrame(io.Discard, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized payload framed")
	}

	br := bufio.NewReader(bytes.NewReader(want))
	for _, p := range payloads {
		if got, err := ReadFrame(br); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("ReadFrame = %x, %v; want %x", got, err, p)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Errorf("ReadFrame at end of stream: %v, want io.EOF", err)
	}
	last := want[len(want)-34:] // the 30-byte payload's frame
	for _, cut := range []int{1, 3, 5} {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(last[:cut]))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream cut %d bytes into a frame: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}))); err == nil {
		t.Error("oversized length prefix accepted")
	}
}
