package core

import (
	"fmt"
	"slices"

	"mobieyes/internal/model"
	"mobieyes/internal/obs"
)

// pendingInstall is a query whose focal object's motion state has been
// requested but not yet received (§3.3 step 3).
type pendingInstall struct {
	qid    model.QueryID
	query  model.Query
	maxVel float64
}

// bookedInstall is a pending install with its expiry (zero: none) — what
// the book hands over when the focal answers, and one record of a
// snapshot's pending section.
type bookedInstall struct {
	pendingInstall
	expiry model.Time
}

// queryBook is the query lifecycle state that lives outside the FOT/SQT/RQI
// tables: the query-ID counter, the installs waiting on a FocalInfoRequest
// answer, keyed by focal in arrival order, and those installs' expiries.
// The serial Server and the ClusterServer router each own one; a router
// node's stays empty, since pending installs exist only where qids are
// minted. An installed query's expiry lives on its SQT row, not here.
//
// Every change republishes the pending-installs gauge, when one is attached.
type queryBook struct {
	next    model.QueryID
	pending map[model.ObjectID][]pendingInstall
	expiry  map[model.QueryID]model.Time
	n       int // pending installs across all focals
	gauge   *obs.Gauge
}

func newQueryBook() queryBook {
	return queryBook{
		next:    1,
		pending: make(map[model.ObjectID][]pendingInstall),
		expiry:  make(map[model.QueryID]model.Time),
	}
}

// mint assigns the next query ID.
func (b *queryBook) mint() model.QueryID {
	qid := b.next
	b.next++
	return qid
}

// park records an install waiting on its focal; a zero expiry means none.
// It reports whether this is the focal's first pending install, for which
// the caller must send the FocalInfoRequest.
func (b *queryBook) park(p pendingInstall, expiry model.Time) (first bool) {
	focal := p.query.Focal
	b.pending[focal] = append(b.pending[focal], p)
	if expiry != 0 {
		b.expiry[p.qid] = expiry
	}
	b.n++
	b.publish()
	return len(b.pending[focal]) == 1
}

// drop removes qid's pending install — a remove or an expiry before the
// focal answered — and reports whether it was pending. A late
// FocalInfoResponse then no longer installs it. The book holds one row per
// focal it is still waiting to hear from, so the scan is short.
func (b *queryBook) drop(qid model.QueryID) bool {
	for focal, ps := range b.pending {
		i := slices.IndexFunc(ps, func(p pendingInstall) bool { return p.qid == qid })
		if i < 0 {
			continue
		}
		if len(ps) == 1 {
			delete(b.pending, focal)
		} else {
			b.pending[focal] = slices.Delete(ps, i, i+1)
		}
		delete(b.expiry, qid)
		b.n--
		b.publish()
		return true
	}
	return false
}

// take removes and returns focal's pending installs with their expiries,
// in arrival order: the focal answered, and the caller completes them.
func (b *queryBook) take(focal model.ObjectID) []bookedInstall {
	ps := b.pending[focal]
	if len(ps) == 0 {
		return nil
	}
	out := make([]bookedInstall, len(ps))
	for i, p := range ps {
		out[i] = bookedInstall{p, b.expiry[p.qid]}
		delete(b.expiry, p.qid)
	}
	delete(b.pending, focal)
	b.n -= len(ps)
	b.publish()
	return out
}

// depart drops every install pending on a departed focal.
func (b *queryBook) depart(focal model.ObjectID) { b.take(focal) }

// due returns the pending qids whose expiry is at or before now, unsorted.
func (b *queryBook) due(now model.Time) []model.QueryID {
	var out []model.QueryID
	for qid, exp := range b.expiry {
		if exp <= now {
			out = append(out, qid)
		}
	}
	return out
}

// waiting reports whether installs are pending on focal.
func (b *queryBook) waiting(focal model.ObjectID) bool { return len(b.pending[focal]) > 0 }

// publish reports the book's size, its number of pending installs, on the
// pending-installs gauge, when one is attached.
func (b *queryBook) publish() {
	if b.gauge != nil {
		b.gauge.Set(float64(b.n))
	}
}

// records lists the pending installs with their expiries, ascending by
// focal and then in arrival order — a snapshot's pending section.
func (b *queryBook) records() []bookedInstall {
	focals := make([]model.ObjectID, 0, len(b.pending))
	for focal := range b.pending {
		focals = append(focals, focal)
	}
	sortOIDs(focals)
	var out []bookedInstall
	for _, focal := range focals {
		for _, p := range b.pending[focal] {
			out = append(out, bookedInstall{p, b.expiry[p.qid]})
		}
	}
	return out
}

// restore refills the book from a snapshot's counter and pending
// records, and returns the focals whose FocalInfoRequest must be re-issued,
// in record order.
func (b *queryBook) restore(next model.QueryID, recs []bookedInstall) []model.ObjectID {
	b.next = next
	var ask []model.ObjectID
	for _, r := range recs {
		if b.park(r.pendingInstall, r.expiry) {
			ask = append(ask, r.query.Focal)
		}
	}
	return ask
}

// check validates the book against the installed queries: every pending
// install is filed under its own focal, has a minted qid that is neither
// installed nor pending twice, and every expiry belongs to a pending
// install and is not zero (zero means no expiry).
func (b *queryBook) check(installed func(model.QueryID) bool) error {
	seen := make(map[model.QueryID]bool)
	for focal, ps := range b.pending {
		if len(ps) == 0 {
			return fmt.Errorf("core: focal %d has an empty pending list", focal)
		}
		for _, p := range ps {
			switch {
			case p.query.Focal != focal || p.query.ID != p.qid:
				return fmt.Errorf("core: pending install %d filed under focal %d is for query %d on focal %d", p.qid, focal, p.query.ID, p.query.Focal)
			case p.qid < 1 || p.qid >= b.next:
				return fmt.Errorf("core: pending query %d was never minted (next %d)", p.qid, b.next)
			case seen[p.qid]:
				return fmt.Errorf("core: query %d pending twice", p.qid)
			case installed(p.qid):
				return fmt.Errorf("core: query %d both pending and installed", p.qid)
			}
			seen[p.qid] = true
		}
	}
	if len(seen) != b.n {
		return fmt.Errorf("core: book counts %d pending installs, holds %d", b.n, len(seen))
	}
	for qid, exp := range b.expiry {
		if !seen[qid] {
			return fmt.Errorf("core: pending expiry recorded for non-pending query %d", qid)
		}
		if exp == 0 {
			return fmt.Errorf("core: pending query %d records a zero expiry", qid)
		}
	}
	return nil
}
