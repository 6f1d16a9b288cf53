package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mobieyes/internal/core"
	"mobieyes/internal/grid"
)

// TestBehaviourDigest pins what the serial engine does at equal step counts
// under every protocol variant: per-kind message and byte counts, evaluation
// and skip counts, the mean LQT size, the server's snapshot bytes and every
// client's installed queries and counters, hashed after 3 warm-up and 40
// measured steps. The digests were computed before the set-cover, broadcast
// and LQT representations were last rewritten, so a representation change
// that alters any message, delivery or evaluation fails here — including in
// the approximate modes (Δ > 0, LQP) that VerifyExact cannot judge. A
// column with Parallelism set must hash like its serial twin: parallel
// client phases merge their uplinks in object order.
func TestBehaviourDigest(t *testing.T) {
	const dr = 0.01 // DefaultConfig's dead-reckoning threshold
	lqpAll := core.Options{Mode: core.LazyPropagation, DeadReckoningThreshold: dr, SafePeriod: true, Grouping: true}
	columns := []struct {
		name string
		opts core.Options
		par  int
		want string
	}{
		{"EQP/Δ=0", core.Options{}, 0, "3c09d8b3a4fcfcc8"},
		{"EQP/Δ=0.01", core.Options{DeadReckoningThreshold: dr}, 0, "2c2938799da28a08"},
		{"LQP", core.Options{Mode: core.LazyPropagation, DeadReckoningThreshold: dr}, 0, "19c7804402ed1fa5"},
		{"SafePeriod", core.Options{SafePeriod: true}, 0, "0d6b0d71665c1be3"},
		{"Predictive", core.Options{Predictive: true}, 0, "d3cad3265f7ea41f"},
		{"Grouping", core.Options{Grouping: true}, 0, "6098be0be08cd048"},
		{"LQP+SafePeriod+Grouping", lqpAll, 0, "906b493cd8433798"},
		{"LQP+SafePeriod+Grouping/Parallelism=4", lqpAll, 4, "906b493cd8433798"},
		{"Default", DefaultConfig().Core, 0, "2c2938799da28a08"},
	}
	for _, col := range columns {
		t.Run(col.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.NumObjects = 3000
			cfg.NumQueries = 300
			cfg.VelocityChangesPerStep = 300
			cfg.Seed = 1
			cfg.Warmup, cfg.Steps = 3, 40
			cfg.Core = col.opts
			cfg.Parallelism = col.par
			if got := behaviourDigest(t, NewEngine(cfg)); got != col.want {
				t.Errorf("digest %s, want %s", got, col.want)
			}
		})
	}
}

// behaviourDigest runs e and hashes the deterministic part of what it did.
func behaviourDigest(t *testing.T, e *Engine) string {
	t.Helper()
	m := e.Run()
	h := sha256.New()
	fmt.Fprintf(h, "up %d %d down %d %d evals %d skipped %d lqt %v\n",
		m.UplinkMsgs, m.UplinkBytes, m.DownlinkMsgs, m.DownlinkBytes, m.Evals, m.Skipped, m.AvgLQTSize)
	for _, k := range m.ByKind {
		fmt.Fprintf(h, "kind %d %d %d %d %d\n", k.Kind, k.UplinkMsgs, k.DownlinkMsgs, k.UplinkBytes, k.DownlinkBytes)
	}
	var snap bytes.Buffer
	if err := e.Server().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	h.Write(snap.Bytes())
	for _, c := range e.Clients() {
		fmt.Fprintf(h, "client %d %v %d %d\n", c.OID(), c.InstalledQueries(), c.Evals(), c.SkippedEvals())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBroadcastCellUnion: the cells a broadcast reaches are its stations'
// cells, each once, in first-seen order — station order, then each station's
// cell order — which is the order deliveries, and so uplinks, happen in. The
// stamps stay correct across an epoch wrap.
func TestBroadcastCellUnion(t *testing.T) {
	e := NewEngine(smallConfig())
	g := e.Grid()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			e.cellEpoch = ^uint32(0) - 1
		}
		c0, r0 := rng.Intn(g.Cols()), rng.Intn(g.Rows())
		region := grid.CellRange{
			Min: grid.CellID{Col: c0, Row: r0},
			Max: grid.CellID{Col: c0 + rng.Intn(8), Row: r0 + rng.Intn(8)},
		}
		stations := e.dep.Cover(region)
		var want []int32
		seen := map[int32]bool{}
		for _, sid := range stations {
			for _, ci := range e.dep.CellsForStation(sid) {
				if !seen[ci] {
					seen[ci] = true
					want = append(want, ci)
				}
			}
		}
		got := e.cellUnion(stations)
		if !slices.Equal(got, want) {
			t.Fatalf("region %v, stations %v: cells %v, want %v", region, stations, got, want)
		}
	}
}
