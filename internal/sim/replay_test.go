package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/workload"
)

// TestTraceReplayMatchesGeneratedRun: the protocol driven by a recorded
// mobility trace (workload.FromTrace) does exactly what it does driven by
// the workload that recorded it. After every step both engines hold the
// same results for every query, have sent the same messages and bytes of
// every kind, and their servers snapshot to the same bytes — in the exact
// mode, where the replay must also be VerifyExact-clean, and with the
// approximate §3.4/§4 options on.
func TestTraceReplayMatchesGeneratedRun(t *testing.T) {
	const steps = 50
	columns := []struct {
		name  string
		opts  core.Options
		exact bool
	}{
		{"EQP/Δ=0", core.Options{}, true},
		{"LQP+SafePeriod+Grouping", core.Options{Mode: core.LazyPropagation, DeadReckoningThreshold: 0.01, SafePeriod: true, Grouping: true}, false},
	}
	for _, col := range columns {
		t.Run(col.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.AreaSqMiles = 10000
			cfg.NumObjects = 3000
			cfg.NumQueries = 300
			cfg.Mobility = workload.RandomWaypoint
			cfg.Core = col.opts
			w, err := workload.FromTrace(workload.New(cfg.WorkloadConfig()).Record(steps))
			if err != nil {
				t.Fatal(err)
			}
			w.Queries = workload.New(cfg.WorkloadConfig()).Queries
			gen, rep := NewEngine(cfg), NewEngineOver(cfg, w)
			for step := 1; step <= steps; step++ {
				gen.Step()
				rep.Step()
				if err := sameBehaviour(gen, rep); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if col.exact {
					if err := rep.VerifyExact(); err != nil {
						t.Fatalf("step %d: replay: %v", step, err)
					}
				}
			}
		})
	}
}

// sameBehaviour reports the first difference between two engines' object
// motion, query results, per-kind traffic and server snapshots. Motion is
// compared too because a replay error on an object that is nobody's focal
// and crosses no cell boundary differently shows in no message.
func sameBehaviour(a, b *Engine) error {
	for i, o := range a.Workload().Objects {
		if p := b.Workload().Objects[i]; o.Pos != p.Pos || o.Vel != p.Vel {
			return fmt.Errorf("object %d: at %v moving %v vs at %v moving %v", o.ID, o.Pos, o.Vel, p.Pos, p.Vel)
		}
	}
	qa, qb := a.Server().QueryIDs(), b.Server().QueryIDs()
	if !slices.Equal(qa, qb) {
		return fmt.Errorf("queries %v vs %v", qa, qb)
	}
	for _, qid := range qa {
		if ra, rb := a.Server().Result(qid), b.Server().Result(qid); !slices.Equal(ra, rb) {
			return fmt.Errorf("query %d: result %v vs %v", qid, ra, rb)
		}
	}
	if ka, kb := a.traffic.Snap().ByKind(), b.traffic.Snap().ByKind(); !slices.Equal(ka, kb) {
		return fmt.Errorf("traffic %+v vs %+v", ka, kb)
	}
	var sa, sb bytes.Buffer
	if err := a.Server().Snapshot(&sa); err != nil {
		return err
	}
	if err := b.Server().Snapshot(&sb); err != nil {
		return err
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		return fmt.Errorf("server snapshots differ (%d vs %d bytes)", sa.Len(), sb.Len())
	}
	return nil
}
