package cost

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"mobieyes/internal/msg"
	"mobieyes/internal/obs"
)

// TestNilAccountant pins the disabled path: every method on a nil
// accountant is a no-op that neither panics nor allocates state, except
// Traffic, which hands out a private ledger.
func TestNilAccountant(t *testing.T) {
	var a *Accountant
	a.Configure(10, 4, 2)
	a.SetMode("EQP")
	l := a.Traffic()
	l.ChargeUplink(msg.KindVelocityReport, 32)
	l.ChargeDownlink(msg.KindVelocityChange, 64, 3)
	if s := l.Snap(); s.UplinkMsgs() != 1 || s.DownlinkMsgs() != 3 {
		t.Errorf("private ledger counted %d up / %d down, want 1/3", s.UplinkMsgs(), s.DownlinkMsgs())
	}
	if a.Traffic() == l {
		t.Error("nil accountant handed out one shared ledger")
	}
	a.NodeUplink(1, msg.KindVelocityReport, 32)
	a.CellUp(3, 32)
	a.CellDown(3, 64)
	a.StationUp(1, 32)
	a.StationDown(1, 64)
	a.QueryUp(7, 32)
	a.QueryDown(7, 64, 2)
	a.ObjectUp(9, 32)
	a.ObjectDown(9, 64, 1)
	a.Compute(UnitTableOp, 5)
	a.QualityStep(10, 1, 2)
	a.ObserveStaleness(4)
	a.Reset()
	if got := a.Snapshot(); got.Global.UpMsgs != 0 {
		t.Errorf("nil snapshot has traffic: %+v", got)
	}
	if a.Mode() != "" {
		t.Errorf("nil Mode() = %q", a.Mode())
	}
	if _, ok := a.CellTally(0); ok {
		t.Error("nil CellTally ok")
	}
	if _, ok := a.QuerySnap(1); ok {
		t.Error("nil QuerySnap ok")
	}
}

// TestLedgerTraffic pins the transport ledger's counting: a broadcast
// relayed through k stations counts k messages of k times the bytes, ByKind
// lists the kinds with traffic in kind order, and Reset leaves no residue.
func TestLedgerTraffic(t *testing.T) {
	var l Ledger
	up, down := msg.VelocityReport{}, msg.VelocityChange{}
	l.ChargeUplink(up.Kind(), up.Size())
	l.ChargeUplink(up.Kind(), up.Size())
	l.ChargeDownlink(down.Kind(), down.Size(), 3) // broadcast through 3 stations

	s := l.Snap()
	if s.UplinkMsgs() != 2 || s.DownlinkMsgs() != 3 {
		t.Errorf("messages %d up / %d down, want 2/3", s.UplinkMsgs(), s.DownlinkMsgs())
	}
	if s.UplinkBytes() != int64(2*up.Size()) || s.DownlinkBytes() != int64(3*down.Size()) {
		t.Errorf("bytes %d up / %d down", s.UplinkBytes(), s.DownlinkBytes())
	}
	want := []KindStats{
		{Kind: msg.KindVelocityReport, UplinkMsgs: 2, UplinkBytes: int64(2 * up.Size())},
		{Kind: msg.KindVelocityChange, DownlinkMsgs: 3, DownlinkBytes: int64(3 * down.Size())},
	}
	if got := s.ByKind(); !slices.Equal(got, want) {
		t.Errorf("ByKind = %+v, want %+v", got, want)
	}

	l.Reset()
	if s := l.Snap(); s != (LedgerSnap{}) || s.ByKind() != nil {
		t.Errorf("Reset left residue: %+v", s)
	}
}

func TestGlobalAttribution(t *testing.T) {
	a := New()
	a.Configure(100, 9, 4)
	a.SetMode("LQP")
	a.Traffic().ChargeUplink(msg.KindVelocityReport, 30)
	a.Traffic().ChargeUplink(msg.KindVelocityReport, 30)
	a.Traffic().ChargeUplink(msg.KindCellChangeReport, 40)
	a.Traffic().ChargeDownlink(msg.KindVelocityChange, 50, 3) // broadcast via 3 stations

	g := a.Global()
	if got := g.UpMsgs[msg.KindVelocityReport]; got != 2 {
		t.Errorf("VelocityReport up msgs = %d, want 2", got)
	}
	if got := g.UpBytes[msg.KindVelocityReport]; got != 60 {
		t.Errorf("VelocityReport up bytes = %d, want 60", got)
	}
	if got := g.DownMsgs[msg.KindVelocityChange]; got != 3 {
		t.Errorf("VelocityChange down msgs = %d, want 3", got)
	}
	if got := g.DownBytes[msg.KindVelocityChange]; got != 150 {
		t.Errorf("VelocityChange down bytes = %d, want 150", got)
	}

	rep := g.Report()
	if rep.UpMsgs != 3 || rep.DownMsgs != 3 || rep.UpBytes != 100 || rep.DownBytes != 150 {
		t.Errorf("report totals = %+v", rep)
	}
	if len(rep.Kinds) != 3 {
		t.Errorf("report kinds = %d, want 3 (zero kinds omitted)", len(rep.Kinds))
	}
	if a.Snapshot().Mode != "LQP" {
		t.Errorf("snapshot mode = %q", a.Snapshot().Mode)
	}
}

// TestNodeRouterIdentity pins the migration-attribution invariant:
// uplinks charged to nodes plus the router ledger must equal the global
// uplink count, including stale drops (out-of-range node index → router).
func TestNodeRouterIdentity(t *testing.T) {
	a := New()
	a.Configure(0, 0, 3)
	kinds := []msg.Kind{msg.KindVelocityReport, msg.KindContainmentReport, msg.KindCellChangeReport}
	nodeIdx := []int{0, 1, 2, -1, 1, 99, 0} // -1 and 99 → router
	for i, sh := range nodeIdx {
		k := kinds[i%len(kinds)]
		a.Traffic().ChargeUplink(k, 30)
		a.NodeUplink(sh, k, 30)
	}
	var nodeSum int64
	for _, s := range a.Nodes() {
		for k := 0; k < msg.NumKinds; k++ {
			nodeSum += s.UpMsgs[k]
		}
	}
	var routerSum int64
	for k := 0; k < msg.NumKinds; k++ {
		routerSum += a.Router().UpMsgs[k]
	}
	var globalSum int64
	for k := 0; k < msg.NumKinds; k++ {
		globalSum += a.Global().UpMsgs[k]
	}
	if routerSum != 2 {
		t.Errorf("router uplinks = %d, want 2", routerSum)
	}
	if nodeSum+routerSum != globalSum {
		t.Errorf("nodes(%d) + router(%d) != global(%d)", nodeSum, routerSum, globalSum)
	}
}

func TestScopedTallies(t *testing.T) {
	a := New()
	a.Configure(16, 4, 0)
	a.CellUp(3, 30)
	a.CellUp(3, 30)
	a.CellDown(5, 50)
	a.StationUp(1, 30)
	a.StationDown(2, 50)
	a.StationDown(2, 50)
	a.QueryUp(7, 25)
	a.QueryDown(7, 60, 3)
	a.ObjectUp(42, 30)

	if ts, ok := a.CellTally(3); !ok || ts.UpMsgs != 2 || ts.UpBytes != 60 {
		t.Errorf("cell 3 = %+v ok=%v", ts, ok)
	}
	if ts, ok := a.CellTally(5); !ok || ts.DownMsgs != 1 || ts.DownBytes != 50 {
		t.Errorf("cell 5 = %+v ok=%v", ts, ok)
	}
	if _, ok := a.CellTally(99); ok {
		t.Error("out-of-range cell tally ok")
	}
	if ts, ok := a.StationTally(2); !ok || ts.DownMsgs != 2 || ts.DownBytes != 100 {
		t.Errorf("station 2 = %+v ok=%v", ts, ok)
	}
	if ts, ok := a.QuerySnap(7); !ok || ts.UpMsgs != 1 || ts.DownMsgs != 3 || ts.DownBytes != 180 {
		t.Errorf("query 7 = %+v ok=%v", ts, ok)
	}
	if _, ok := a.QuerySnap(8); ok {
		t.Error("unknown query snap ok")
	}
	if ts, ok := a.ObjectSnap(42); !ok || ts.UpMsgs != 1 {
		t.Errorf("object 42 = %+v ok=%v", ts, ok)
	}
	// Out-of-range fixed scopes are dropped silently, not panics.
	a.CellUp(-1, 10)
	a.CellUp(1000, 10)
	a.StationDown(77, 10)

	s := a.Snapshot()
	if len(s.Cells) != 2 || len(s.Stations) != 2 || len(s.Queries) != 1 || len(s.Objects) != 1 {
		t.Errorf("snapshot scopes: %d cells %d stations %d queries %d objects",
			len(s.Cells), len(s.Stations), len(s.Queries), len(s.Objects))
	}
}

func TestQuality(t *testing.T) {
	a := New()
	a.QualityStep(8, 2, 0) // precision 0.8, recall 1
	a.QualityStep(9, 1, 3) // precision 0.9, recall 0.75
	q := a.Snapshot().Quality
	if q == nil {
		t.Fatal("no quality section")
	}
	if q.Precision != 0.9 || q.Recall != 0.75 {
		t.Errorf("latest precision/recall = %v/%v", q.Precision, q.Recall)
	}
	if q.TP != 17 || q.FP != 3 || q.FN != 3 {
		t.Errorf("cumulative tp/fp/fn = %d/%d/%d", q.TP, q.FP, q.FN)
	}
	if q.CumPrecision != 0.85 {
		t.Errorf("cum precision = %v, want 0.85", q.CumPrecision)
	}
	// Empty steps count as perfect, not NaN.
	a.QualityStep(0, 0, 0)
	q2 := a.qualityReport()
	if q2.Precision != 1 || q2.Recall != 1 {
		t.Errorf("empty-step precision/recall = %v/%v, want 1/1", q2.Precision, q2.Recall)
	}
}

func TestStalenessBuckets(t *testing.T) {
	a := New()
	for _, steps := range []int64{0, 1, 1, 4, 21, 100} {
		a.ObserveStaleness(steps)
	}
	q := a.qualityReport()
	if q.StaleCount != 6 || q.StaleSum != 127 {
		t.Errorf("stale count/sum = %d/%d", q.StaleCount, q.StaleSum)
	}
	want := map[int64]int64{0: 1, 1: 2, 5: 1, 21: 1, -1: 1}
	got := map[int64]int64{}
	for _, b := range q.Staleness {
		got[b.LE] = b.Count
	}
	for le, n := range want {
		if got[le] != n {
			t.Errorf("bucket le=%d count = %d, want %d", le, got[le], n)
		}
	}
}

func TestReset(t *testing.T) {
	a := New()
	a.Configure(4, 2, 2)
	a.SetMode("EQP")
	a.Traffic().ChargeUplink(msg.KindPositionReport, 26)
	a.NodeUplink(1, msg.KindPositionReport, 26)
	a.NodeUplink(-1, msg.KindPositionReport, 26)
	a.CellUp(1, 26)
	a.StationDown(0, 40)
	a.QueryUp(1, 26)
	a.ObjectDown(2, 40, 1)
	a.Compute(UnitSetCover, 3)
	a.QualityStep(5, 1, 1)
	a.ObserveStaleness(2)
	a.Reset()
	s := a.Snapshot()
	if s.Global.UpMsgs != 0 || s.Global.DownMsgs != 0 || len(s.Global.Compute) != 0 {
		t.Errorf("global not reset: %+v", s.Global)
	}
	if s.Router != nil || len(s.Cells) != 0 || len(s.Stations) != 0 ||
		len(s.Queries) != 0 || len(s.Objects) != 0 || s.Quality != nil {
		t.Errorf("scopes not reset: %+v", s)
	}
	if len(s.Nodes) != 2 {
		t.Errorf("Reset dropped node configuration: %d nodes", len(s.Nodes))
	}
	if s.Mode != "EQP" {
		t.Errorf("Reset cleared mode: %q", s.Mode)
	}
}

// TestScrapeDuringUpdate hammers every attribution path from writer
// goroutines while readers snapshot, scrape a registry, and reset — the
// -race ledger test the satellite list requires.
func TestScrapeDuringUpdate(t *testing.T) {
	a := New()
	a.Configure(64, 8, 4)
	reg := obs.NewRegistry()
	a.Instrument(reg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := msg.Kind(i % msg.NumKinds)
				a.Traffic().ChargeUplink(k, 30)
				a.Traffic().ChargeDownlink(k, 40, 2)
				a.NodeUplink(i%5-1, k, 30)
				a.CellUp(int32(i%64), 30)
				a.StationDown(int32(i%8), 40)
				a.QueryUp(int64(i%10), 30)
				a.ObjectDown(int64(i%10), 40, 1)
				a.Compute(Unit(i%NumUnits), 1)
				a.QualityStep(3, 1, 1)
				a.ObserveStaleness(int64(i % 30))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = a.Snapshot()
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(sb.String(), "mobieyes_cost_msgs_total") {
					t.Error("scrape missing cost metrics")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			a.Reset()
		}
	}()
	// Let readers finish, then release writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 3; i++ {
		_ = a.Snapshot()
	}
	close(stop)
	<-done
}

func TestUnitStrings(t *testing.T) {
	seen := map[string]bool{}
	for u := 0; u < NumUnits; u++ {
		s := Unit(u).String()
		if s == "UnknownUnit" || seen[s] {
			t.Errorf("unit %d name %q invalid or duplicate", u, s)
		}
		seen[s] = true
	}
	if Unit(-1).String() != "UnknownUnit" || Unit(NumUnits).String() != "UnknownUnit" {
		t.Error("out-of-range unit names")
	}
}

func TestWriteText(t *testing.T) {
	a := New()
	a.Configure(4, 2, 2)
	a.SetMode("EQP")
	a.Traffic().ChargeUplink(msg.KindVelocityReport, 30)
	a.NodeUplink(0, msg.KindVelocityReport, 30)
	a.Traffic().ChargeDownlink(msg.KindVelocityChange, 50, 2)
	a.StationDown(1, 50)
	a.Compute(UnitSetCover, 1)
	a.QualityStep(9, 1, 0)
	a.ObserveStaleness(3)
	var sb strings.Builder
	a.Snapshot().WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"mode", "EQP", "VelocityReport", "VelocityChange",
		"SetCover", "node 0", "station 1", "precision", "staleness"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}
