package simtest

import (
	"bytes"
	"sort"
	"testing"

	"mobieyes/internal/history"
	"mobieyes/internal/model"
	"mobieyes/internal/obs/stream"
	"mobieyes/internal/sim"
)

// TestHistoryReplayOracle is the replay oracle: a simulation recorded into
// a history log must be reproducible from the log alone. A huge-buffer
// firehose subscription captures the ground-truth event stream (the sink
// and every subscriber observe Publish in the same global order, under the
// tap's mutex), and the test proves that
//
//  1. every query's logged timeline equals the subscriber's event stream
//     exactly (same seq, oid, direction — gap-free from 1),
//  2. the log round-trips byte-identically through its wire codec, and a
//     timeline re-derived from the decoded bytes re-encodes to the same
//     bytes as the store's own, and
//  3. integrating each timeline reproduces the engine's final result sets,
//     and the last reconstructed frame carries the objects' exact final
//     positions.
func TestHistoryReplayOracle(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		cfg := sim.DefaultConfig()
		cfg.AreaSqMiles = 2500
		cfg.NumObjects = 200
		cfg.NumQueries = 20
		cfg.VelocityChangesPerStep = 40

		tap := stream.NewTap()
		store := history.NewStore(64 << 20) // never evicts at this scale
		cfg.Stream = tap
		cfg.ResultLog = store

		// Ground truth: subscribe before the engine exists, so the
		// stream covers installation transitions too.
		sub, snap := tap.Subscribe(stream.Firehose, 1<<20)
		defer sub.Close()
		if len(snap) != 0 {
			t.Fatalf("pre-run snapshot = %v", snap)
		}

		eng := sim.NewEngine(cfg)
		for i := 0; i < 8; i++ {
			eng.Step()
		}

		events, evicted := sub.Drain()
		if evicted {
			t.Fatal("oracle subscriber evicted — raise its buffer")
		}
		if _, _, _, erecs := store.Stats(); erecs != 0 {
			t.Fatal("store evicted records — raise its budget")
		}
		want := map[int64][]stream.Event{}
		for _, ev := range events {
			want[ev.QID] = append(want[ev.QID], ev)
		}

		// Query set straight from the log's lifecycle marks.
		var qids []int64
		for _, r := range store.All() {
			if r.Kind == history.KindQuery {
				qids = append(qids, r.QID)
			}
		}
		if len(qids) != cfg.NumQueries {
			t.Fatalf("logged %d query marks, want %d", len(qids), cfg.NumQueries)
		}

		// (2) Byte-identical codec round trip of the whole log.
		enc := history.EncodeLog(store.All())
		dec, err := history.DecodeLog(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(history.EncodeLog(dec), enc) {
			t.Fatal("log does not round-trip byte-identically")
		}

		for _, qid := range qids {
			// (1) Logged timeline == subscriber ground truth.
			tl := store.Timeline(qid)
			evs := want[qid]
			if len(tl) != len(evs) {
				t.Fatalf("qid %d: %d logged transitions, %d streamed", qid, len(tl), len(evs))
			}
			for i, r := range tl {
				ev := evs[i]
				if r.Seq != uint64(i+1) || r.Seq != ev.Seq || r.OID != ev.OID ||
					(r.Kind == history.KindEnter) != ev.Enter {
					t.Fatalf("qid %d transition %d: logged %+v, streamed %+v", qid, i, r, ev)
				}
			}

			// (2) Timeline re-derived from decoded bytes re-encodes
			// identically.
			var fromDec []history.Record
			for _, r := range dec {
				if r.QID == qid && (r.Kind == history.KindEnter || r.Kind == history.KindLeave) {
					fromDec = append(fromDec, r)
				}
			}
			if !bytes.Equal(history.EncodeLog(fromDec), history.EncodeLog(tl)) {
				t.Fatalf("qid %d: replayed timeline differs from the store's", qid)
			}

			// (3) Integrated timeline == engine's final result set.
			members := map[int64]bool{}
			for _, r := range tl {
				if r.Kind == history.KindEnter {
					members[r.OID] = true
				} else {
					delete(members, r.OID)
				}
			}
			res := eng.Server().Result(model.QueryID(qid))
			if len(res) != len(members) {
				t.Fatalf("qid %d: replay has %d members, engine %d", qid, len(members), len(res))
			}
			for _, oid := range res {
				if !members[int64(oid)] {
					t.Fatalf("qid %d: engine member %d missing from replay", qid, oid)
				}
			}
		}

		// (3) The last reconstructed frame has the exact final positions.
		frames := history.Frames(store.All())
		if len(frames) == 0 {
			t.Fatal("no frames reconstructed")
		}
		last := frames[len(frames)-1]
		if last.T != float64(eng.Now()) {
			t.Fatalf("last frame at t=%v, engine at t=%v", last.T, eng.Now())
		}
		for _, o := range eng.Workload().Objects {
			p, ok := last.Pos[int64(o.ID)]
			if !ok || p[0] != o.Pos.X || p[1] != o.Pos.Y {
				t.Fatalf("object %d: frame pos %v, world pos %v", o.ID, p, o.Pos)
			}
		}

		// Sanity: the stream was live, not trivially empty.
		if published, _, dropped, _ := tap.Stats(); published == 0 || dropped != 0 {
			t.Fatalf("tap stats: published %d dropped %d", published, dropped)
		}
		sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
		if qids[0] != 1 {
			t.Fatalf("first qid = %d", qids[0])
		}
	})
}
