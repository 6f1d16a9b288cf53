package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// TestBatchEncodingPinned fixes the batch version 2 bytes: a labelled
// metric and one trace event.
func TestBatchEncodingPinned(t *testing.T) {
	b := &Batch{
		Metrics: []obs.SeriesPoint{{
			Name: "mobieyes_server_uplinks_total", Help: "uplinks handled", Counter: true,
			Labels: []string{"kind", "velocity"}, Value: 1234.5,
		}},
		Events: []trace.Event{{
			Trace: 0xDEADBEEF, Nanos: 1700000000123456789, Kind: trace.KindTable,
			Actor: "node1", OID: 42, QID: 7, Note: "SQT insert",
		}},
	}
	p := EncodeBatch(b)
	sum := sha256.Sum256(p)
	const want = "66c9bc08f04f2b064937aa44f3ccd1f6d0e7114b24c64251a00647d37ca85dba"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("batch sha256 %s, want %s (%d bytes)", got, want, len(p))
	}
	if _, err := DecodeBatch(p); err != nil {
		t.Errorf("pinned batch does not decode: %v", err)
	}
}
