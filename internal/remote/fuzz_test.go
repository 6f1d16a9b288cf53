package remote

import (
	"bufio"
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// fuzzStream builds a well-formed frame stream for the seed corpus.
func fuzzStream(frames ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range frames {
		_ = WriteFrame(&buf, p)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame treats arbitrary bytes as an incoming connection: frames
// are read until the stream errors, and each payload goes through the full
// server-side classification (control-frame check, hello decode for the
// first frame, wire decode). Nothing here may panic or allocate beyond the
// frame-size cap, no matter the input — this is the path a hostile or
// corrupted peer reaches before any protocol state exists.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	hello := EncodeHello(42)
	report := wire.Encode(msg.VelocityReport{OID: 9, Pos: geo.Pt(1, 2), Vel: geo.Vec(3, 4), Tm: 5})
	ping := wire.Encode(msg.Ping{Token: rng.Uint64()})
	f.Add(fuzzStream(hello, report, ping))
	f.Add(fuzzStream(hello))
	f.Add(fuzzStream(nil))
	// Version-mismatched handshakes: the legacy 5-byte (version 1) form and
	// a version byte from the future. Both must be refused as
	// HelloVersionError, never misparsed as an object ID.
	legacy := []byte{0x48, 42, 0, 0, 0}
	future := []byte{0x48, 0x7F, 42, 0, 0, 0}
	f.Add(fuzzStream(legacy, report))
	f.Add(fuzzStream(future, report))
	// Cluster-tier frames arriving on an object connection: decodable, but
	// the server must classify them without panicking.
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeHello{Node: 1, Proto: 2})))
	f.Add(fuzzStream(hello, wire.Encode(msg.Handoff{Seq: 1, OID: 9, Slice: []byte{1, 2}})))
	// Telemetry-plane frames: a pushed batch, its zero-length-payload
	// non-canonical twin, and a heartbeat status answer.
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeTelemetry{Node: 1, Seq: 3, Payload: []byte{0x01, 0x00}})))
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeTelemetry{Node: 1, Seq: 3})))
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeStatus{Node: 1, Seq: 4, Epoch: 2, Lo: 0, Hi: 9, Ops: 7})))
	// Crash-recovery frames: a checkpoint pull, a populated delta, and its
	// non-canonical twin with an unsorted removal list (must be refused by
	// the wire decode without poisoning the frame loop).
	f.Add(fuzzStream(hello, wire.Encode(msg.CheckpointRequest{Node: 1, Since: 5})))
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeCheckpoint{
		Node: 1, Seq: 6, Removed: []uint32{2, 8}, Slices: [][]byte{{0x01, 0x00, 0x09}},
	})))
	f.Add(fuzzStream(hello, wire.Encode(msg.NodeCheckpoint{Node: 1, Seq: 6, Removed: []uint32{8, 2}})))
	// Length prefix pointing past the data, oversized prefix, raw garbage.
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 0x48})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x48, 0x01, 0x02})
	// A version-2 hello (refused since version 3), and compact frames — a
	// device's downlinks echoed back, an overlong varint and unknown filter
	// flags — arriving where uplinks belong.
	hello2 := []byte{0x48, 2, 42, 0, 0, 0}
	f.Add(fuzzStream(hello2, report, ping))
	qi := wire.EncodeCompact(msg.QueryInstall{Queries: []msg.QueryState{{
		QID: 3, Focal: 9, Region: model.CircleRegion{R: 2}, Filter: model.Filter{Seed: 5, Permille: 750},
	}}}, 0)
	f.Add(fuzzStream(hello, qi, wire.EncodeCompact(msg.Pong{Token: 1}, 77)))
	f.Add(fuzzStream(hello, []byte{0xE5, 0xE7, 3, byte(msg.KindFocalNotify), 0x85, 0x00, 0x01, 0x01}))
	bad := append([]byte(nil), qi...)
	bad[56] = 0x80 // the filter's flags byte
	f.Add(fuzzStream(hello, bad))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		first := true
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			ControlFrame(payload)
			if first {
				_, _ = decodeHello(payload)
				first = false
			}
			m, tid, err := wire.DecodeTraced(payload)
			if err != nil {
				continue
			}
			if m == nil {
				t.Fatal("wire.DecodeTraced returned nil message without error")
			}
			// An accepted frame is canonical in the encoding its version
			// byte names. (Legacy frames may carry nonzero src/dst words,
			// which the decoder ignores; FuzzWire covers those.)
			if payload[2] == wire.CompactVersion || payload[2] == wire.CompactTracedVersion {
				if out := wire.EncodeCompact(m, tid); !bytes.Equal(out, payload) {
					t.Fatalf("compact %T not canonical:\n in: %x\nout: %x", m, payload, out)
				}
			} else if size := wire.EncodedSize(m, tid); size != len(payload) {
				t.Fatalf("legacy %T accounts for %d bytes, payload is %d", m, size, len(payload))
			}
		}
	})
}

// FuzzAdminCommand feeds arbitrary text to the admin dispatch of a live
// server with two honest devices, one command per line as a session reads
// them. Nothing may panic; every command gets exactly one reply — one line,
// or a block closed by the "." line — and the backend's invariants hold
// afterwards. snapshot (writes files), SUB (waits for live events) and quit
// (ends the session) are skipped.
func FuzzAdminCommand(f *testing.F) {
	s := testServer(f)
	dialObject(f, s, 1, geo.Pt(50, 50), geo.Vec(0, 0))
	dialObject(f, s, 2, geo.Pt(51, 50), geo.Vec(0, 0))
	a := &AdminServer{srv: s}
	for _, seed := range []string{
		"install 1 3 1000\nresult 1\nremove 1",
		"install 2 NaN 500", "install 1 1e308 5", "install 4294967297 2 500", "install -5 2 500",
		"result 4294967297", "remove -1", "conns", "stats", "STATS", "help", "bogus",
		"events n 3", "latency", "costs oid 1", "history qid 1", "cluster", "nodes 2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, line := range strings.Split(text, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "snapshot", "SUB", "quit":
				continue
			}
			var out bytes.Buffer
			if !a.handleCommand(&out, fields) {
				t.Fatalf("%q ended the session", line)
			}
			reply, ok := strings.CutSuffix(out.String(), "\n")
			if lines := strings.Split(reply, "\n"); !ok || len(lines) > 1 && lines[len(lines)-1] != "." {
				t.Fatalf("%q: reply %q is neither one line nor a block closed by \".\"", line, out.String())
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
