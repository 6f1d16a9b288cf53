package cost

import (
	"fmt"
	"io"
	"math"

	"mobieyes/internal/obs"
)

// ScopedTally is the costs view's body for one entity: its tally keyed by
// its scope, e.g. {"qid": {...}} in JSON.
type ScopedTally map[string]TallySnap

// WriteText writes the tally as one line.
func (s ScopedTally) WriteText(w io.Writer) error {
	p := obs.TextWriter{W: w}
	for scope, t := range s {
		p.Printf("%s %d up %d msgs / %d B, down %d msgs / %d B\n",
			scope, t.ID, t.UpMsgs, t.UpBytes, t.DownMsgs, t.DownBytes)
	}
	return p.Err
}

// View is the cost view (/debug/costs, admin COSTS): the full ledger
// Snapshot, or with one of the exclusive cell/station/qid/oid filters that
// entity's ScopedTally — not found when it is out of range or has no traffic.
// A nil accountant is disabled.
func (a *Accountant) View() obs.View {
	return obs.View{
		Name: "costs", Path: "/debug/costs", Word: "COSTS",
		Keys: []string{"cell", "station", "qid", "oid"},
		Doc:  "cost ledgers, or one entity's tally (needs -costs)",
		Get: func(args obs.Args) (obs.Body, error) {
			if a == nil {
				return nil, obs.Disabled("accounting")
			}
			scope, id, err := args.Scope("cell", "station", "qid", "oid")
			if err != nil {
				return nil, err
			}
			var t TallySnap
			var ok bool
			switch scope {
			case "":
				return a.Snapshot(), nil
			case "cell":
				t, ok = a.CellTally(int32(min(id, math.MaxInt32)))
			case "station":
				t, ok = a.StationTally(int32(min(id, math.MaxInt32)))
			case "qid":
				t, ok = a.QuerySnap(id)
			case "oid":
				t, ok = a.ObjectSnap(id)
			}
			if !ok {
				return nil, fmt.Errorf("%s %d %w", scope, id, obs.ErrNotFound)
			}
			return ScopedTally{scope: t}, nil
		},
	}
}
