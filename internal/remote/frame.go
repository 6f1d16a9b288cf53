// Package remote runs MobiEyes over real TCP connections: the server is a
// network service and every moving object is a client endpoint (typically a
// separate process) speaking the binary protocol of internal/wire. It turns
// the simulated system into a deployable one — the same core.Server and
// core.Client state machines, the same messages, now crossing sockets.
//
// Time is absolute: hours since the Unix epoch, which realizes the paper's
// "moving objects have synchronized clocks" assumption (§2.1) for processes
// on NTP-synchronized hosts.
//
// Stream format: each frame is a 4-byte little-endian length followed by
// either a handshake (frame starting with the hello tag) or one
// wire-encoded protocol message.
package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// maxFrame guards against hostile or corrupt length prefixes. The largest
// legitimate message is a QueryInstall during a dense cell change; 1 MiB
// allows ~10,000 query states.
const maxFrame = 1 << 20

// helloTag distinguishes the one handshake frame from protocol frames.
// wire messages always start with the wire magic's low byte, which differs.
const helloTag = 0x48 // 'H'

// HelloVersion is the handshake protocol version spoken by this build.
// Version 1 was the unversioned 5-byte [tag, oid] form; version 2 added the
// version byte so incompatible peers are refused explicitly instead of
// misparsed; version 3 announces a device that reads compact downlinks
// (wire.EncodeCompact), which is all the server sends. Uplinks stay legacy
// frames. The server refuses every other version.
const HelloVersion = 3

// HelloVersionError reports a handshake from a peer speaking a different
// protocol version. It is a typed rejection: the session is refused, but the
// caller can tell "wrong version" apart from "corrupt frame".
type HelloVersionError struct{ Got uint8 }

func (e *HelloVersionError) Error() string {
	return fmt.Sprintf("remote: peer hello is protocol version %d, this build speaks %d", e.Got, HelloVersion)
}

// errFrameSize reports a payload longer than maxFrame.
func errFrameSize(n int) error {
	return fmt.Errorf("remote: frame of %d bytes exceeds limit", n)
}

// WriteFrame writes a length-prefixed payload in two Write calls, so w
// should be buffered; an unbuffered writer frames with AppendFrame and
// writes once. The header is appended to w's AvailableBuffer when w has one
// (*bufio.Writer, *bytes.Buffer), so framing into such a writer allocates
// nothing while it has room.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return errFrameSize(len(payload))
	}
	var b []byte
	if aw, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = aw.AvailableBuffer()
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(b, uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends payload's frame — the 4-byte little-endian length,
// then the payload — to dst and returns the extended slice. A payload over
// the frame limit leaves dst as it was and returns an error.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return dst, errFrameSize(len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// ReadFrame reads one length-prefixed payload; the payload is its one
// allocation. A stream that ends inside the length prefix returns
// io.ErrUnexpectedEOF, as one that ends inside the payload does.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	_, _ = r.Discard(4) // cannot fail: Peek returned the 4 bytes
	if n > maxFrame {
		return nil, errFrameSize(int(n))
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// EncodeHello builds the handshake frame payload announcing an object ID:
// [tag, version, oid u32].
func EncodeHello(oid model.ObjectID) []byte {
	b := make([]byte, 6)
	b[0] = helloTag
	b[1] = HelloVersion
	binary.LittleEndian.PutUint32(b[2:], uint32(oid))
	return b
}

// decodeHello parses a handshake payload. A recognizable hello of the wrong
// protocol version — including the legacy unversioned 5-byte form, which is
// version 1 — returns a *HelloVersionError; anything else is malformed.
func decodeHello(b []byte) (model.ObjectID, error) {
	switch {
	case len(b) == 5 && b[0] == helloTag:
		return 0, &HelloVersionError{Got: 1}
	case len(b) == 6 && b[0] == helloTag:
		if b[1] != HelloVersion {
			return 0, &HelloVersionError{Got: b[1]}
		}
		return model.ObjectID(binary.LittleEndian.Uint32(b[2:])), nil
	}
	return 0, fmt.Errorf("remote: malformed hello (%d bytes)", len(b))
}

// ControlFrame reports whether a frame payload is transport-control traffic
// — the handshake hello or a Ping/Pong probe. Fault injectors must pass
// these through undisturbed: dropping a hello kills the session instead of
// degrading it, and the simulation harness's quiescence barrier relies on
// Ping/Pong surviving.
func ControlFrame(payload []byte) bool {
	// Both hello shapes pass: a wrong-version hello must reach the server so
	// it is refused with a typed error, not silently eaten by a relay.
	if (len(payload) == 5 || len(payload) == 6) && payload[0] == helloTag {
		return true
	}
	if len(payload) >= 4 && binary.LittleEndian.Uint16(payload) == wire.Magic {
		k := msg.Kind(payload[3])
		return k == msg.KindPing || k == msg.KindPong
	}
	return false
}

// nowHours returns the absolute protocol time: hours since the Unix epoch.
func nowHours() model.Time {
	return model.Time(float64(time.Now().UnixNano()) / float64(time.Hour))
}
