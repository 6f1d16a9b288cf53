package main

import (
	"reflect"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
	"mobieyes/internal/model"
	"mobieyes/internal/msg"
)

const hashedOps = 20000

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.kind == kindSim {
			continue
		}
		a, b := streamHash(w.stream, 7, hashedOps), streamHash(w.stream, 7, hashedOps)
		if a != b {
			t.Errorf("%s: the same seed gave streams %s and %s", w.name, a, b)
		}
		if c := streamHash(w.stream, 8, hashedOps); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", w.name, a)
		}
	}
}

func TestWorkloadsShareStreams(t *testing.T) {
	hash := func(name string) string {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		return streamHash(w.stream, 3, hashedOps)
	}
	if a, b, c := hash("tcp_mix"), hash("engine_mix"), hash("engine_obs"); a != b || b != c {
		t.Errorf("tcp_mix, engine_mix and engine_obs streams differ: %s %s %s", a, b, c)
	}
	if a, b := hash("tcp_focal"), hash("cluster_focal"); a != b {
		t.Errorf("tcp_focal and cluster_focal streams differ: %s %s", a, b)
	}
	if hash("tcp_mix") == hash("tcp_focal") {
		t.Error("the mix and focal streams are the same")
	}
}

// follower tracks what the protocol rules depend on, per object.
type follower struct {
	cell map[model.ObjectID]grid.CellID
	tm   map[model.ObjectID]model.Time
}

func (f *follower) check(t *testing.T, g *grid.Grid, m msg.Message) {
	t.Helper()
	oid := objectOf(m)
	if err := checkLegal(g, f.cell[oid], f.tm[oid], m); err != nil {
		t.Fatal(err)
	}
	switch v := m.(type) {
	case msg.CellChangeReport:
		f.cell[oid], f.tm[oid] = v.NewCell, v.Tm
	case msg.VelocityReport:
		f.tm[oid] = v.Tm
	}
}

func TestEveryMessageIsLegal(t *testing.T) {
	for _, spec := range []streamSpec{mixStream, focalStream} {
		gen := newGenerator(spec, 11)
		f := &follower{cell: map[model.ObjectID]grid.CellID{}, tm: map[model.ObjectID]model.Time{}}
		for oid := model.ObjectID(1); oid <= numObjects; oid++ {
			j := gen.join(oid).(msg.CellChangeReport)
			if gen.g.Valid(j.PrevCell) || !gen.g.Valid(j.NewCell) || gen.g.CellOf(j.Pos) != j.NewCell {
				t.Fatalf("join of %d is not a move from no cell into the object's cell: %+v", oid, j)
			}
			f.cell[oid], f.tm[oid] = j.NewCell, j.Tm
		}
		for q := model.ObjectID(1); int(q) <= spec.queries; q++ {
			info := gen.focalInfo(q).(msg.FocalInfoResponse)
			if info.Tm <= f.tm[q] {
				t.Fatalf("focal info of %d: Tm %v not after %v", q, info.Tm, f.tm[q])
			}
			f.tm[q] = info.Tm
		}
		kinds := map[msg.Kind]int{}
		const n = 200000
		for _, m := range gen.record(n) {
			f.check(t, gen.g, m)
			kinds[m.Kind()]++
			if c, ok := m.(msg.ContainmentReport); ok && (c.QID < 1 || int(c.QID) > spec.queries) {
				t.Fatalf("containment report for query %d of %d", c.QID, spec.queries)
			}
		}
		vel, cell, cont := kinds[msg.KindVelocityReport], kinds[msg.KindCellChangeReport], kinds[msg.KindContainmentReport]
		var wantVel, wantCont float64
		if spec.focalOnly {
			wantVel = float64(spec.focalVelPct) / 100
		} else {
			focal := float64(spec.queries) / numObjects
			wantVel = focal * float64(spec.focalVelPct) / 100
			wantCont = (1 - focal) * float64(100-spec.nonFocalCellPct) / 100
		}
		near := func(got int, want float64) bool { d := float64(got)/n - want; return d > -0.01 && d < 0.01 }
		if !near(vel, wantVel) || !near(cont, wantCont) || vel+cell+cont != n {
			t.Errorf("queries=%d: mix of %d ops is %d velocity, %d cell change, %d containment; want shares %.3f / rest / %.3f",
				spec.queries, n, vel, cell, cont, wantVel, wantCont)
		}
	}
}

// An object's messages must not depend on how the issuers interleave, or the
// same seed would not give the same inputs.
func TestIssuersPartitionTheCanonicalStream(t *testing.T) {
	for _, spec := range []streamSpec{mixStream, focalStream} {
		const rounds = 3
		canonical := newGenerator(spec, 5)
		order := canonical.issuing()
		perObject := map[model.ObjectID][]msg.Message{}
		for _, m := range canonical.record(rounds * len(order)) {
			oid := objectOf(m)
			perObject[oid] = append(perObject[oid], m)
		}
		for _, issuers := range []int{2, 3, 4} {
			gen := newGenerator(spec, 5)
			seen := 0
			// Issuers run in reverse order here; any schedule must do.
			for k := issuers - 1; k >= 0; k-- {
				own := gen.owned(k, issuers)
				seen += len(own)
				got := map[model.ObjectID][]msg.Message{}
				for r := 0; r < rounds; r++ {
					for _, oid := range own {
						if int(oid)%issuers != k {
							t.Fatalf("issuer %d of %d owns object %d", k, issuers, oid)
						}
						got[oid] = append(got[oid], gen.next(oid))
					}
				}
				for oid, msgs := range got {
					if !reflect.DeepEqual(msgs, perObject[oid]) {
						t.Fatalf("%d issuers: object %d's messages differ from the canonical stream", issuers, oid)
					}
				}
			}
			if seen != len(order) {
				t.Errorf("%d issuers own %d objects, %d issue ops", issuers, seen, len(order))
			}
		}
	}
}

// objectOf is the object a message is from, by the repo's own attribution.
func objectOf(m msg.Message) model.ObjectID {
	oid, _ := core.TraceRef(m)
	return model.ObjectID(oid)
}

func TestCheckLegalRejects(t *testing.T) {
	g := grid.New(uod(), cellAlpha)
	at := grid.CellID{Col: 3, Row: 3}
	pos := g.CellRect(grid.CellID{Col: 4, Row: 3}).Center()
	ok := msg.CellChangeReport{OID: 1, PrevCell: at, NewCell: grid.CellID{Col: 4, Row: 3}, Pos: pos, Tm: 2}
	if err := checkLegal(g, at, 1, ok); err != nil {
		t.Fatalf("legal move rejected: %v", err)
	}
	bad := map[string]msg.Message{
		"stale previous cell": msg.CellChangeReport{OID: 1, PrevCell: grid.CellID{Col: 2, Row: 3}, NewCell: at, Pos: g.CellRect(at).Center(), Tm: 2},
		"two cells away":      msg.CellChangeReport{OID: 1, PrevCell: at, NewCell: grid.CellID{Col: 5, Row: 3}, Pos: g.CellRect(grid.CellID{Col: 5, Row: 3}).Center(), Tm: 2},
		"no move":             msg.CellChangeReport{OID: 1, PrevCell: at, NewCell: at, Pos: g.CellRect(at).Center(), Tm: 2},
		"off the grid":        msg.CellChangeReport{OID: 1, PrevCell: grid.CellID{Col: 0, Row: 0}, NewCell: grid.CellID{Col: -1, Row: 0}, Tm: 2},
		"clock not advancing": msg.CellChangeReport{OID: 1, PrevCell: at, NewCell: ok.NewCell, Pos: pos, Tm: 1},
		"stale velocity":      msg.VelocityReport{OID: 1, Pos: g.CellRect(at).Center(), Tm: 1},
		"departure":           msg.DepartureReport{OID: 1},
	}
	for name, m := range bad {
		cell := at
		if name == "off the grid" {
			cell = grid.CellID{Col: 0, Row: 0}
		}
		if err := checkLegal(g, cell, 1, m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
