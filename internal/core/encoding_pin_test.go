package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mobieyes/internal/geo"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
)

// pinnedSlice is a focal row holding a circle, a rect and a polygon query;
// the rect carries a result set and the polygon an expiry.
func pinnedSlice() []byte {
	fe := &fotEntry{
		state:    model.MotionState{Pos: geo.Pt(52.25, 47.5), Vel: geo.Vec(-1.5, 2), Tm: 3.75},
		maxVel:   120,
		currCell: grid.CellID{Col: 10, Row: 9},
		queries:  []model.QueryID{4, 7, 9},
	}
	mon := grid.CellRange{Min: grid.CellID{Col: 8, Row: 7}, Max: grid.CellID{Col: 12, Row: 11}}
	regions := []model.Region{
		model.CircleRegion{R: 3},
		model.RectRegion{W: 4, H: 2.5},
		model.PolygonRegion{Vertices: []geo.Point{geo.Pt(-1, -1), geo.Pt(2, -1), geo.Pt(0, 3)}},
	}
	results := []map[model.ObjectID]struct{}{{}, {3: {}, 11: {}, 5: {}}, {}}
	expiries := []model.Time{0, 0, 90.5}
	rec := focalRecord{oid: 17, fe: fe}
	for i, qid := range fe.queries {
		rec.entries = append(rec.entries, &sqtEntry{
			query:     model.Query{ID: qid, Focal: 17, Region: regions[i], Filter: model.Filter{Seed: 0xABCD, Permille: 500}},
			monRegion: mon,
			result:    results[i],
			expiry:    expiries[i],
		})
	}
	return encodeFocalSlice(rec)
}

// TestEncodingsPinned fixes the focal-slice v1 and MOBS v2 bytes: a codec
// change that moves a single byte of either fails here.
func TestEncodingsPinned(t *testing.T) {
	slice := pinnedSlice()
	book := newQueryBook()
	book.next = 12
	q := model.Query{ID: 10, Focal: 23, Region: model.RectRegion{W: 6, H: 1}, Filter: model.Filter{Seed: 7, Permille: 250}}
	book.park(pendingInstall{qid: 10, query: q, maxVel: 80}, 64.25)
	snap := appendSnapshot(nil, &book, [][]byte{slice})
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"focal slice", slice, "d95adf572c05d5767108e8434ea640e533006a3c0f29a6b051a928320d70f964"},
		{"snapshot", snap, "144eb40c0dbfbe00b60c1fcba10d89b5b5713466b2d1b08f88c3c3b6fe1b4c97"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
	if _, err := readSnapshot(smallGrid(), bytes.NewReader(snap)); err != nil {
		t.Errorf("pinned snapshot does not restore: %v", err)
	}
}
