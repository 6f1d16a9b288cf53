package history

import (
	"fmt"
	"io"

	"mobieyes/internal/obs"
)

// Summary is the store-level statistics: the history view's unfiltered body.
type Summary struct {
	Bytes        int   `json:"bytes"`
	Records      int   `json:"records"`
	Appended     int64 `json:"appended_total"`
	BytesWritten int64 `json:"bytes_written_total"`
	EvictedSegs  int64 `json:"evicted_segments_total"`
	EvictedRecs  int64 `json:"evicted_records_total"`
}

// WriteText writes the statistics as one line.
func (sum Summary) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "history %d bytes, %d records (%d appended, %d B written, evicted %d segments / %d records)\n",
		sum.Bytes, sum.Records, sum.Appended, sum.BytesWritten, sum.EvictedSegs, sum.EvictedRecs)
	return err
}

// Records is the history view's body for a qid or oid filter.
type Records []Record

// WriteText writes one record per line.
func (recs Records) WriteText(w io.Writer) error {
	p := obs.TextWriter{W: w}
	for _, r := range recs {
		switch r.Kind {
		case KindEnter, KindLeave:
			p.Printf("t %.6f qid %d seq %d oid %d %s\n", r.T, r.QID, r.Seq, r.OID, r.Kind)
		case KindPos:
			p.Printf("t %.6f oid %d pos %.6f %.6f\n", r.T, r.OID, r.X, r.Y)
		case KindQuery:
			p.Printf("t %.6f qid %d %s focal %d radius %.6f\n", r.T, r.QID, r.Kind, r.OID, r.X)
		case KindQueryRemove:
			p.Printf("t %.6f qid %d %s\n", r.T, r.QID, r.Kind)
		}
	}
	return p.Err
}

// View is the history view (/debug/history, admin HIST): the store's
// Summary, or with one of the exclusive filters qid (the query's replay
// timeline: enter/leave transitions plus install/remove marks) or oid (the
// object's position samples) those Records. ?format=raw streams the raw log
// (WriteTo) that cmd/mobiviz -replay reads. A nil store is disabled.
func (s *Store) View() obs.View {
	return obs.View{
		Name: "history", Path: "/debug/history", Word: "HIST",
		Keys: []string{"qid", "oid"},
		Doc:  "history-log summary, a query's timeline or an object's positions (needs -history-bytes)",
		Get: func(args obs.Args) (obs.Body, error) {
			if s == nil {
				return nil, obs.Disabled("history")
			}
			scope, id, err := args.Scope("qid", "oid")
			recs := Records{}
			switch {
			case err != nil:
				return nil, err
			case scope == "qid":
				recs = append(recs, s.Replay(id)...)
			case scope == "oid":
				for _, r := range s.All() {
					if r.Kind == KindPos && r.OID == id {
						recs = append(recs, r)
					}
				}
			default:
				sum := Summary{Bytes: s.Bytes(), Records: s.Records()}
				sum.Appended, sum.BytesWritten, sum.EvictedSegs, sum.EvictedRecs = s.Stats()
				return sum, nil
			}
			return recs, nil
		},
		Raw: func(w io.Writer) error {
			if s == nil {
				return obs.Disabled("history")
			}
			_, err := s.WriteTo(w)
			return err
		},
	}
}
