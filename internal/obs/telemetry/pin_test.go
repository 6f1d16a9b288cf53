package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mobieyes/internal/obs"
	"mobieyes/internal/obs/trace"
)

// TestBatchEncodingPinned fixes the batch version 1 bytes: a labelled
// metric, one cost entry per axis and one trace event.
func TestBatchEncodingPinned(t *testing.T) {
	b := &Batch{
		Metrics: []obs.SeriesPoint{{
			Name: "mobieyes_server_uplinks_total", Help: "uplinks handled", Counter: true,
			Labels: []string{"kind", "velocity"}, Value: 1234.5,
		}},
		Costs: []CostEntry{
			{Axis: axisUpMsgs, Index: 1, Value: 10},
			{Axis: axisUpBytes, Index: 2, Value: 2000},
			{Axis: axisDownMsgs, Index: 3, Value: -3},
			{Axis: axisDownBytes, Index: 4, Value: 1 << 40},
			{Axis: axisCompute, Index: 5, Value: 77},
		},
		Events: []trace.Event{{
			Trace: 0xDEADBEEF, Nanos: 1700000000123456789, Kind: trace.KindTable,
			Actor: "node1", OID: 42, QID: 7, Note: "SQT insert",
		}},
	}
	p := EncodeBatch(b)
	sum := sha256.Sum256(p)
	const want = "8cc377a628aa2d5515776e8fb8f8f8731a75ed221adb8709fb0893a40578f6ce"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("batch sha256 %s, want %s (%d bytes)", got, want, len(p))
	}
	if _, err := DecodeBatch(p); err != nil {
		t.Errorf("pinned batch does not decode: %v", err)
	}
}
