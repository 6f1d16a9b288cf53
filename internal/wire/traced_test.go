package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mobieyes/internal/msg"
)

// Traced frames (TracedVersion) must round-trip the trace ID, interoperate
// with the untraced codec, and reject the one non-canonical shape: a
// version-2 frame declaring a zero trace ID.

func TestTracedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range sampleMessages(rng) {
		for _, tid := range []uint64{1, 42, 1<<64 - 1} {
			b := EncodeTraced(m, tid)
			if want := m.Size() + TraceOverhead; len(b) != want {
				t.Fatalf("%T traced frame is %d bytes, want %d", m, len(b), want)
			}
			if b[2] != TracedVersion {
				t.Fatalf("%T traced frame version %d, want %d", m, b[2], TracedVersion)
			}
			got, gotTID, err := DecodeTraced(b)
			if err != nil {
				t.Fatalf("DecodeTraced(%T): %v", m, err)
			}
			if gotTID != tid {
				t.Fatalf("%T trace ID %d, want %d", m, gotTID, tid)
			}
			// The message content is unchanged by the trace field.
			if !bytes.Equal(Encode(got), Encode(m)) {
				t.Fatalf("%T content changed through traced round trip", m)
			}
			// Plain Decode accepts the traced frame, discarding the ID.
			if _, err := Decode(b); err != nil {
				t.Fatalf("Decode of traced %T: %v", m, err)
			}
		}
	}
}

func TestEncodeTracedZeroIsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range sampleMessages(rng) {
		if !bytes.Equal(EncodeTraced(m, 0), Encode(m)) {
			t.Fatalf("EncodeTraced(%T, 0) differs from Encode", m)
		}
	}
}

// TestEncodedSizeMatchesEncoding: the legacy size computed without encoding
// equals the encoded frame's length, for every downlink kind, plain and
// traced.
func TestEncodedSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seen := map[msg.Kind]bool{}
	for _, m := range sampleMessages(rng) {
		for _, tid := range []uint64{0, 1, 1<<64 - 1} {
			if got, want := EncodedSize(m, tid), len(EncodeTraced(m, tid)); got != want {
				t.Fatalf("EncodedSize(%T, %d) = %d, encoded frame is %d bytes", m, tid, got, want)
			}
		}
		seen[m.Kind()] = true
	}
	for k := msg.KindPing + 1; !k.Node(); k++ {
		if !seen[k] {
			t.Errorf("no sample message of downlink kind %v", k)
		}
	}
}

func TestDecodeTracedPlainFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range sampleMessages(rng) {
		_, tid, err := DecodeTraced(Encode(m))
		if err != nil {
			t.Fatalf("DecodeTraced(plain %T): %v", m, err)
		}
		if tid != 0 {
			t.Fatalf("plain %T frame decoded trace ID %d, want 0", m, tid)
		}
	}
}

func TestDecodeTracedZeroIDRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := sampleMessages(rng)[0]
	b := EncodeTraced(m, 5)
	for i := 16; i < 24; i++ {
		b[i] = 0
	}
	if _, _, err := DecodeTraced(b); err == nil || !strings.Contains(err.Error(), "zero trace ID") {
		t.Fatalf("zero-TID traced frame: err = %v, want zero-trace-ID rejection", err)
	}
}

func TestDecodeTracedTruncatedID(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := sampleMessages(rng)[0]
	b := EncodeTraced(m, 5)[:20] // header + half the trace ID
	if _, _, err := DecodeTraced(b); err == nil {
		t.Fatal("truncated traced frame decoded without error")
	}
}
