package cost

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// KindRow is the per-message-kind traffic row of a ledger report.
type KindRow struct {
	Kind      string `json:"kind"`
	UpMsgs    int64  `json:"up_msgs"`
	UpBytes   int64  `json:"up_bytes"`
	DownMsgs  int64  `json:"down_msgs"`
	DownBytes int64  `json:"down_bytes"`
}

// UnitRow is one computation-unit tally of a ledger report.
type UnitRow struct {
	Unit string `json:"unit"`
	N    int64  `json:"n"`
}

// LedgerReport is the JSON-friendly rendering of a LedgerSnap: totals plus
// the non-zero per-kind and per-unit rows.
type LedgerReport struct {
	UpMsgs    int64     `json:"up_msgs"`
	UpBytes   int64     `json:"up_bytes"`
	DownMsgs  int64     `json:"down_msgs"`
	DownBytes int64     `json:"down_bytes"`
	Kinds     []KindRow `json:"kinds,omitempty"`
	Compute   []UnitRow `json:"compute,omitempty"`
}

// Report converts the snapshot to its JSON-friendly form.
func (s LedgerSnap) Report() LedgerReport {
	r := LedgerReport{
		UpMsgs:    s.UplinkMsgs(),
		UpBytes:   s.UplinkBytes(),
		DownMsgs:  s.DownlinkMsgs(),
		DownBytes: s.DownlinkBytes(),
	}
	for _, ks := range s.ByKind() {
		r.Kinds = append(r.Kinds, KindRow{
			Kind:      ks.Kind.String(),
			UpMsgs:    ks.UplinkMsgs,
			UpBytes:   ks.UplinkBytes,
			DownMsgs:  ks.DownlinkMsgs,
			DownBytes: ks.DownlinkBytes,
		})
	}
	for u := 0; u < NumUnits; u++ {
		if s.Compute[u] != 0 {
			r.Compute = append(r.Compute, UnitRow{Unit: Unit(u).String(), N: s.Compute[u]})
		}
	}
	return r
}

// StaleBucket is one bucket of the staleness histogram; LE is the upper
// bound in steps, -1 meaning +Inf (overflow).
type StaleBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// QualityReport is the answer-quality section of a snapshot.
type QualityReport struct {
	// Precision/Recall reflect the latest measured step; CumPrecision and
	// CumRecall are computed over the cumulative tp/fp/fn counters.
	Precision    float64       `json:"precision"`
	Recall       float64       `json:"recall"`
	CumPrecision float64       `json:"cum_precision"`
	CumRecall    float64       `json:"cum_recall"`
	TP           int64         `json:"tp"`
	FP           int64         `json:"fp"`
	FN           int64         `json:"fn"`
	Staleness    []StaleBucket `json:"staleness,omitempty"`
	StaleCount   int64         `json:"stale_count"`
	StaleSum     int64         `json:"stale_sum_steps"`
	StaleMean    float64       `json:"stale_mean_steps"`
}

// Snapshot is the full point-in-time state of an Accountant, shaped for
// JSON exposition (/debug/costs, the admin COSTS command, RunReports).
type Snapshot struct {
	Mode     string         `json:"mode,omitempty"`
	Global   LedgerReport   `json:"global"`
	Router   *LedgerReport  `json:"router,omitempty"`
	Nodes    []LedgerReport `json:"nodes,omitempty"`
	Cells    []TallySnap    `json:"cells,omitempty"`
	Stations []TallySnap    `json:"stations,omitempty"`
	Queries  []TallySnap    `json:"queries,omitempty"`
	Objects  []TallySnap    `json:"objects,omitempty"`
	Quality  *QualityReport `json:"quality,omitempty"`
	Egress   *EgressReport  `json:"egress,omitempty"`
}

// EgressReport is the observability-downlink section of a snapshot: bytes
// charged at the stream gateway's SSE encode boundary and at the history
// store's log-append boundary. It lives outside the ledger hierarchy (see
// Accountant.egress).
type EgressReport struct {
	GatewayWrites  int64 `json:"gateway_writes"`
	GatewayBytes   int64 `json:"gateway_bytes"`
	HistoryAppends int64 `json:"history_appends"`
	HistoryBytes   int64 `json:"history_bytes"`
}

// Snapshot captures the whole accountant. Zero-valued cells/stations are
// omitted; queries and objects are ordered by ID. A nil accountant returns
// the zero Snapshot.
func (a *Accountant) Snapshot() Snapshot {
	var s Snapshot
	if a == nil {
		return s
	}
	s.Mode = a.Mode()
	s.Global = a.global.Snap().Report()
	if r := a.router.Snap(); r != (LedgerSnap{}) {
		rep := r.Report()
		s.Router = &rep
	}
	for i := range a.nodes {
		s.Nodes = append(s.Nodes, a.nodes[i].Snap().Report())
	}
	for i := range a.cells {
		if !a.cells[i].zeroValued() {
			s.Cells = append(s.Cells, a.cells[i].snap(int64(i)))
		}
	}
	for i := range a.stations {
		if !a.stations[i].zeroValued() {
			s.Stations = append(s.Stations, a.stations[i].snap(int64(i)))
		}
	}
	s.Queries = a.queries.snapAll()
	s.Objects = a.objects.snapAll()
	if q := a.qualityReport(); q.TP != 0 || q.FP != 0 || q.FN != 0 || q.StaleCount != 0 {
		s.Quality = &q
	}
	if e := (EgressReport{
		GatewayWrites:  a.egress.gatewayWrites.Value(),
		GatewayBytes:   a.egress.gatewayBytes.Value(),
		HistoryAppends: a.egress.historyAppends.Value(),
		HistoryBytes:   a.egress.historyBytes.Value(),
	}); e != (EgressReport{}) {
		s.Egress = &e
	}
	return s
}

func (a *Accountant) qualityReport() QualityReport {
	q := QualityReport{
		Precision: a.q.precision.Value(),
		Recall:    a.q.recall.Value(),
		TP:        a.q.tp.Value(),
		FP:        a.q.fp.Value(),
		FN:        a.q.fn.Value(),
	}
	if q.TP+q.FP > 0 {
		q.CumPrecision = float64(q.TP) / float64(q.TP+q.FP)
	}
	if q.TP+q.FN > 0 {
		q.CumRecall = float64(q.TP) / float64(q.TP+q.FN)
	}
	for i := range a.q.stale {
		n := a.q.stale[i].Value()
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < len(staleBounds) {
			le = staleBounds[i]
		}
		q.Staleness = append(q.Staleness, StaleBucket{LE: le, Count: n})
	}
	q.StaleCount = a.q.staleCount.Value()
	q.StaleSum = a.q.staleSum.Value()
	if q.StaleCount > 0 {
		q.StaleMean = float64(q.StaleSum) / float64(q.StaleCount)
	}
	return q
}

// CellTally returns the tally snapshot for one grid cell; ok is false when
// the cell is out of the configured range (or accounting is disabled).
func (a *Accountant) CellTally(cell int32) (TallySnap, bool) {
	if a == nil || int(cell) < 0 || int(cell) >= len(a.cells) {
		return TallySnap{}, false
	}
	return a.cells[cell].snap(int64(cell)), true
}

// StationTally returns the tally snapshot for one base station.
func (a *Accountant) StationTally(station int32) (TallySnap, bool) {
	if a == nil || int(station) < 0 || int(station) >= len(a.stations) {
		return TallySnap{}, false
	}
	return a.stations[station].snap(int64(station)), true
}

// QuerySnap returns the tally snapshot for one query ID; ok is false when
// the query has no recorded traffic.
func (a *Accountant) QuerySnap(qid int64) (TallySnap, bool) {
	if a == nil {
		return TallySnap{}, false
	}
	return a.queries.lookup(qid)
}

// ObjectSnap returns the tally snapshot for one object ID.
func (a *Accountant) ObjectSnap(oid int64) (TallySnap, bool) {
	if a == nil {
		return TallySnap{}, false
	}
	return a.objects.lookup(oid)
}

// WriteText renders the snapshot as a human-readable report: the global
// per-kind traffic table, compute units, node attribution, the busiest
// base stations by downlink bytes, and the quality section.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	if s.Mode != "" {
		fmt.Fprintf(tw, "mode\t%s\n", s.Mode)
	}
	fmt.Fprintf(tw, "global\tup %d msgs / %d B\tdown %d msgs / %d B\n",
		s.Global.UpMsgs, s.Global.UpBytes, s.Global.DownMsgs, s.Global.DownBytes)
	for _, k := range s.Global.Kinds {
		fmt.Fprintf(tw, "  kind %s\tup %d / %d B\tdown %d / %d B\n",
			k.Kind, k.UpMsgs, k.UpBytes, k.DownMsgs, k.DownBytes)
	}
	for _, u := range s.Global.Compute {
		fmt.Fprintf(tw, "  compute %s\t%d\n", u.Unit, u.N)
	}
	for i, nd := range s.Nodes {
		fmt.Fprintf(tw, "node %d\tup %d msgs / %d B\n", i, nd.UpMsgs, nd.UpBytes)
	}
	if s.Router != nil {
		fmt.Fprintf(tw, "router\tup %d msgs / %d B\n", s.Router.UpMsgs, s.Router.UpBytes)
	}
	if len(s.Stations) > 0 {
		top := append([]TallySnap(nil), s.Stations...)
		sort.Slice(top, func(i, j int) bool { return top[i].DownBytes > top[j].DownBytes })
		if len(top) > 5 {
			top = top[:5]
		}
		for _, st := range top {
			fmt.Fprintf(tw, "station %d\tup %d / %d B\tdown %d / %d B\n",
				st.ID, st.UpMsgs, st.UpBytes, st.DownMsgs, st.DownBytes)
		}
	}
	fmt.Fprintf(tw, "scopes\t%d cells\t%d stations\t%d queries\t%d objects\n",
		len(s.Cells), len(s.Stations), len(s.Queries), len(s.Objects))
	if e := s.Egress; e != nil {
		fmt.Fprintf(tw, "egress\tgateway %d writes / %d B\thistory %d appends / %d B\n",
			e.GatewayWrites, e.GatewayBytes, e.HistoryAppends, e.HistoryBytes)
	}
	if q := s.Quality; q != nil {
		fmt.Fprintf(tw, "quality\tprecision %.4f (cum %.4f)\trecall %.4f (cum %.4f)\n",
			q.Precision, q.CumPrecision, q.Recall, q.CumRecall)
		fmt.Fprintf(tw, "  tp/fp/fn\t%d/%d/%d\n", q.TP, q.FP, q.FN)
		if q.StaleCount > 0 {
			fmt.Fprintf(tw, "  staleness\t%d episodes\tmean %.2f steps\n", q.StaleCount, q.StaleMean)
			for _, b := range q.Staleness {
				le := fmt.Sprintf("%d", b.LE)
				if b.LE < 0 {
					le = "+Inf"
				}
				fmt.Fprintf(tw, "    le=%s\t%d\n", le, b.Count)
			}
		}
	}
	return tw.Flush()
}
