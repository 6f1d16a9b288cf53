package cluster

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
	"mobieyes/internal/wire"
)

// installPayload is the opCompleteInstall payload RemoteNode sends.
func installPayload(qid model.QueryID, focal model.ObjectID) []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0))
	qi := wire.Encode(msg.QueryInstall{Queries: []msg.QueryState{{
		QID: qid, Focal: focal, Region: model.CircleRegion{R: 8}, FocalMaxVel: 15,
	}}})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(qi)))
	return append(b, qi...)
}

// upsertPayload is the opUpsertFocal payload RemoteNode sends.
func upsertPayload(oid model.ObjectID, pos geo.Point) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(oid))
	for _, v := range []float64{pos.X, pos.Y, 0, 5, 1} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestWorkerRefusesCorruptingInstalls: an opCompleteInstall for a focal the
// node does not hold dereferenced a missing FOT row, and one for a qid
// already installed left a stale RQI row behind. The router sends neither,
// but any peer past the hello can; the worker refuses both with an op error
// and the node stays consistent.
func TestWorkerRefusesCorruptingInstalls(t *testing.T) {
	w := NewWorker(WorkerConfig{UoD: geo.NewRect(0, 0, 100, 100), Alpha: 5.0})
	apply := func(code uint8, data []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("op %d panicked: %v", code, r)
			}
		}()
		_, err = w.apply(code, data, 0)
		return err
	}
	if err := apply(opCompleteInstall, installPayload(1, 9)); err == nil || !strings.Contains(err.Error(), "not held") {
		t.Errorf("install on an unheld focal: error %v, want one saying the focal is not held", err)
	}
	if err := apply(opUpsertFocal, upsertPayload(9, geo.Pt(52, 52))); err != nil {
		t.Fatal(err)
	}
	if err := apply(opCompleteInstall, installPayload(1, 9)); err != nil {
		t.Fatalf("well-formed install refused: %v", err)
	}
	if err := apply(opCompleteInstall, installPayload(1, 9)); err == nil || !strings.Contains(err.Error(), "already installed") {
		t.Errorf("second install of query 1: error %v, want one saying it is already installed", err)
	}
	if err := w.node.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
