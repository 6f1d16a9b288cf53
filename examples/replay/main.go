// Replay: record a mobility scenario, serialize it, read it back and
// replay it bit-for-bit — the workflow for turning a live incident into a
// reproducible regression input (see also cmd/mobitrace). It exits 1 when
// the replay diverges from the recorded run, so it doubles as a check.
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"os"

	"mobieyes/internal/geo"
	"mobieyes/internal/workload"
)

func main() {
	// A workload of 400 objects driving the random-waypoint process.
	cfg := workload.Default(geo.NewRect(0, 0, 100, 100))
	cfg.NumObjects = 400
	cfg.NumQueries = 1
	cfg.Mobility = workload.RandomWaypoint
	cfg.Seed = 42
	w := workload.New(cfg)

	fmt.Println("recording 120 steps (one simulated hour) of waypoint mobility…")
	tr := w.Record(120)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		panic(err)
	}
	fmt.Printf("serialized trace: %d bytes for %d objects × %d steps\n",
		buf.Len(), len(tr.Objects), len(tr.Steps))

	back, err := workload.ReadTrace(&buf)
	if err != nil {
		panic(err)
	}
	replay, err := workload.FromTrace(back)
	if err != nil {
		panic(err)
	}
	for range back.Steps {
		replay.Step()
	}

	exact := 0
	for i, o := range w.Objects {
		if replay.Objects[i].Pos == o.Pos {
			exact++
		}
	}
	fmt.Printf("replayed positions exactly matching the original run: %d/%d\n",
		exact, len(w.Objects))
	if exact != len(w.Objects) {
		fmt.Fprintln(os.Stderr, "!! divergence — replay is broken")
		os.Exit(1)
	}
	fmt.Println("the serialized scenario reproduces the run bit-for-bit")
}
