package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

// FuzzWire feeds arbitrary bytes to DecodeTraced, which reads both
// encodings. Two properties must hold: decoding never panics (it is the
// trust boundary for everything a peer sends), and any payload it accepts
// is canonical — re-encoding the decoded message in the encoding its
// version byte names reproduces the input bytes exactly, and that
// encoding's size function (EncodedSize or CompactSize) matches.
// Canonicity is what makes the protocol's byte accounting (the transports'
// cost.Ledger) and the simulation harness's frame relays trustworthy.
func FuzzWire(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i, m := range sampleMessages(rng) {
		f.Add(Encode(m))
		f.Add(EncodeTraced(m, uint64(i+1)))
	}
	// Hostile shapes: truncations, bad magic, bad version, bad kind, and a
	// traced frame declaring a zero trace ID (must be rejected — zero only
	// encodes as a plain Version frame).
	f.Add([]byte{})
	f.Add([]byte{0xE5})
	f.Add([]byte{0xE5, 0xE7, 0x01, 0x00})
	f.Add([]byte{0xE5, 0xE7, 0xFF, 0x07})
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x03})
	zeroTID := EncodeTraced(msg.DepartureReport{OID: 1}, 7)
	for i := 16; i < 24; i++ {
		zeroTID[i] = 0
	}
	f.Add(zeroTID)
	// A telemetry frame with a zero-length payload delta: non-canonical (the
	// worker would not send an empty batch) and must be rejected.
	f.Add(Encode(msg.NodeTelemetry{Node: 1, Seq: 1}))
	// Hostile checkpoint deltas: unsorted removals and a zero-length slice
	// are non-canonical and must be rejected.
	f.Add(Encode(msg.NodeCheckpoint{Node: 1, Seq: 2, Removed: []uint32{9, 4}}))
	f.Add(Encode(msg.NodeCheckpoint{Node: 1, Seq: 2, Slices: [][]byte{nil}}))
	// Compact frames of every downlink shape, and their hostile twins: an
	// overlong varint, an ID past uint32, unknown filter flags, a zero
	// filter marked present, an uplink kind and a zero trace ID.
	for i, m := range downlinkSamples(rng) {
		f.Add(EncodeCompact(m, 0))
		f.Add(EncodeCompact(m, uint64(i+1)))
	}
	f.Add([]byte{0xE5, 0xE7, 3, byte(msg.KindFocalInfoRequest), 0x85, 0x00})
	f.Add([]byte{0xE5, 0xE7, 3, byte(msg.KindFocalInfoRequest), 0x80, 0x80, 0x80, 0x80, 0x10})
	filtered := EncodeCompact(msg.QueryInstall{Queries: []msg.QueryState{{QID: 1, Region: model.CircleRegion{R: 1}, Filter: model.Filter{Seed: 1}}}}, 0)
	f.Add(mutate(filtered, 56, 0x02))
	f.Add(mutate(filtered, 57, 0x00))
	f.Add([]byte{0xE5, 0xE7, 3, byte(msg.KindDepartureReport), 0x05})
	f.Add([]byte{0xE5, 0xE7, 4, byte(msg.KindPong), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, tid, err := DecodeTraced(data)
		if err != nil {
			return
		}
		if data[2] == CompactVersion || data[2] == CompactTracedVersion {
			// CompactSize is what the network server charges for a unicast
			// it drops unencoded, so it must account for the payload exactly.
			if size := CompactSize(m, tid); size != len(data) {
				t.Fatalf("decoded compact %T (tid %d) accounts for %d bytes, payload is %d bytes", m, tid, size, len(data))
			}
			if out := EncodeCompact(m, tid); !bytes.Equal(out, data) {
				t.Fatalf("decode/encode of compact %T not canonical:\n in: %x\nout: %x", m, data, out)
			}
			return
		}
		// EncodedSize sizes EncodeTraced's buffer, so it must account for
		// the payload exactly.
		if size := EncodedSize(m, tid); size != len(data) {
			t.Fatalf("decoded %T (tid %d) accounts for %d bytes, wire payload is %d bytes", m, tid, size, len(data))
		}
		// The src/dst header words (bytes 8–16) are routing fields owned by
		// the transport layer; Decode ignores them and Encode zeroes them.
		// Canonicity applies to everything else, including the trace ID.
		want := append([]byte{}, data...)
		for i := 8; i < 16; i++ {
			want[i] = 0
		}
		out := EncodeTraced(m, tid)
		if !bytes.Equal(out, want) {
			t.Fatalf("decode/encode of %T not canonical:\n in: %x\nout: %x", m, want, out)
		}
	})
}
