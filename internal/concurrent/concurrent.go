// Package concurrent provides the multi-threaded access layer for the
// paper's throughput experiment (§5.4): operations lock DGL granules —
// a tree-level intention lock plus fine-grained leaf-region granules —
// before touching the index.
//
// Granule layout: granule 0 is the whole tree ("external" granule); the
// unit square is tiled into an N×N grid whose cells stand in for the
// paper's leaf granules. Updates take IX on the tree and X on the cells
// covering the old and new positions; queries take IS on the tree and S
// on the cells covering the window. Cell ids are acquired in sorted
// order, which makes the protocol deadlock-free; timeouts remain as a
// safety net and are surfaced in the stats.
//
// Physical integrity is provided by a coarse reader-writer latch: the
// paper's interest is the throughput effect of cheaper updates (shorter
// exclusive sections), which this preserves, while queries — the
// read-heavy end of the mix — run fully in parallel. The README section
// "Concurrent reads & consistency" states the guarantees callers get.
package concurrent

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"burtree/internal/core"
	"burtree/internal/dgl"
	"burtree/internal/geom"
	"burtree/internal/rtree"
)

// TreeGranule is the whole-index granule (DGL's external granule).
const TreeGranule = dgl.GranuleID(0)

// DB wraps an update strategy with DGL locking and a physical latch.
type DB struct {
	u       core.Updater
	lm      *dgl.Manager
	latch   sync.RWMutex
	gridN   int
	timeout time.Duration

	updates   atomic.Int64
	queries   atomic.Int64
	timeouts  atomic.Int64
	retries   atomic.Int64
	local     atomic.Int64
	escalated atomic.Int64
	batched   atomic.Int64
}

// New wraps u with an N×N granule grid. A gridN of 0 defaults to 32.
func New(u core.Updater, gridN int) *DB {
	if gridN <= 0 {
		gridN = 32
	}
	return &DB{
		u:       u,
		lm:      dgl.NewManager(),
		gridN:   gridN,
		timeout: 2 * time.Second,
	}
}

// Updater returns the wrapped strategy.
func (d *DB) Updater() core.Updater { return d.u }

// LockManager exposes the DGL table (for stats and tests).
func (d *DB) LockManager() *dgl.Manager { return d.lm }

// Stats reports operation and contention counters.
type Stats struct {
	Updates   int64
	Queries   int64
	Timeouts  int64
	Retries   int64
	Local     int64 // updates resolved on the fine-grained path
	Escalated int64 // updates that required exclusive access
	Batched   int64 // updates resolved under a leaf-group lock (UpdateBatch)
}

// Stats returns a snapshot of the counters.
func (d *DB) Stats() Stats {
	return Stats{
		Updates:   d.updates.Load(),
		Queries:   d.queries.Load(),
		Timeouts:  d.timeouts.Load(),
		Retries:   d.retries.Load(),
		Local:     d.local.Load(),
		Escalated: d.escalated.Load(),
		Batched:   d.batched.Load(),
	}
}

// cellOf maps a point to its grid granule id (1-based; 0 is the tree).
func (d *DB) cellOf(p geom.Point) dgl.GranuleID {
	x := geom.ClampCell(p.X, d.gridN)
	y := geom.ClampCell(p.Y, d.gridN)
	return dgl.GranuleID(1 + y*d.gridN + x)
}

// cellsOfRect lists the granules covering r, sorted ascending. An
// inverted (or NaN) rectangle covers nothing: the query that carries it
// matches no objects, needs no cell locks, and must not compute a
// negative covering-range size.
func (d *DB) cellsOfRect(r geom.Rect) []dgl.GranuleID {
	if !r.Valid() {
		return nil
	}
	x0 := geom.ClampCell(r.MinX, d.gridN)
	x1 := geom.ClampCell(r.MaxX, d.gridN)
	y0 := geom.ClampCell(r.MinY, d.gridN)
	y1 := geom.ClampCell(r.MaxY, d.gridN)
	out := make([]dgl.GranuleID, 0, (x1-x0+1)*(y1-y0+1))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			out = append(out, dgl.GranuleID(1+y*d.gridN+x))
		}
	}
	return out
}

// pageGranule maps a tree page id into the granule space, above the grid
// cells so the global acquisition order (tree, cells, pages) is total.
func (d *DB) pageGranule(p rtree.PageID) dgl.GranuleID {
	return dgl.GranuleID(1<<32) + dgl.GranuleID(p)
}

// Update moves an object. Bottom-up strategies first attempt the local
// path in parallel: IX on the tree, X on the movement cells, X on the
// object's leaf and parent page granules, all under the shared physical
// latch — two local updates below different parents proceed
// concurrently, which is the behaviour that gives GBU its throughput
// edge in the paper's §5.4 study. When the strategy cannot resolve the
// update locally (ascent, top-down fallback) or does not support local
// updates at all (TD), the operation escalates to X on the tree granule
// plus the exclusive latch.
func (d *DB) Update(oid rtree.OID, old, new geom.Point) error {
	// Room for the two cells plus the leaf and parent page granules.
	var cells [4]dgl.GranuleID
	cells[0], cells[1] = d.cellOf(old), d.cellOf(new)
	nc := 2
	switch {
	case cells[0] == cells[1]:
		nc = 1
	case cells[0] > cells[1]:
		cells[0], cells[1] = cells[1], cells[0]
	}

	if lu, ok := d.u.(core.LocalUpdater); ok {
		done, err := d.tryLocal(lu, oid, old, new, cells[:nc])
		if done || err != nil {
			if err == nil {
				d.updates.Add(1)
				d.local.Add(1)
			}
			return err
		}
	}

	// Escalate: exclusive over the whole index.
	txn, err := d.lockExclusive(oid)
	if err != nil {
		return err
	}
	d.latch.Lock()
	err = d.u.Update(oid, old, new)
	d.latch.Unlock()
	d.lm.ReleaseAll(txn)
	if err == nil {
		d.updates.Add(1)
		d.escalated.Add(1)
	}
	return err
}

// lockExclusive takes X on the tree granule for an escalated move of
// oid, retrying lock timeouts. The caller runs the move under the
// exclusive latch, then releases txn.
func (d *DB) lockExclusive(oid rtree.OID) (*dgl.Txn, error) {
	const maxAttempts = 8
	txn := d.lm.Begin()
	for attempt := 0; ; attempt++ {
		err := d.lm.Acquire(txn, TreeGranule, dgl.X, d.timeout)
		if err == nil {
			return txn, nil
		}
		// A timed-out request is withdrawn and nothing else is held,
		// so txn can simply try again.
		d.timeouts.Add(1)
		if attempt+1 >= maxAttempts {
			return nil, fmt.Errorf("concurrent: update %d: %w", oid, err)
		}
		d.retries.Add(1)
	}
}

// lockSet appends the page granules of scope to cells in ascending
// order, giving the global acquisition order (tree, cells, pages) that
// lockAll needs. cells must already be sorted; spare capacity beyond
// it is reused, so callers size it for the scope.
func (d *DB) lockSet(cells []dgl.GranuleID, scope []rtree.PageID) []dgl.GranuleID {
	out := cells
	for _, p := range scope {
		out = append(out, d.pageGranule(p))
	}
	slices.Sort(out[len(cells):])
	return out
}

// tryLocal attempts the fine-grained path: lock the movement cells and
// the leaf/parent page granules, re-validate the scope (the object may
// have moved leaves between lookup and lock), then run the strategy's
// local update under the shared latch.
func (d *DB) tryLocal(lu core.LocalUpdater, oid rtree.OID, old, new geom.Point, cells []dgl.GranuleID) (bool, error) {
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		d.latch.RLock()
		scope, err := lu.LocalScope(oid)
		d.latch.RUnlock()
		if err != nil {
			// Unknown object or bookkeeping failure: let the exclusive
			// path produce the definitive error.
			return false, nil
		}

		txn := d.lm.Begin()
		if err := d.lockAll(txn, dgl.IX, dgl.X, d.lockSet(cells, scope)); err != nil {
			d.lm.ReleaseAll(txn)
			d.timeouts.Add(1)
			d.retries.Add(1)
			continue
		}
		// Re-validate under the locks.
		d.latch.RLock()
		scope2, err := lu.LocalScope(oid)
		if err != nil || !slices.Equal(scope, scope2) {
			d.latch.RUnlock()
			d.lm.ReleaseAll(txn)
			if err != nil {
				return false, nil
			}
			d.retries.Add(1)
			continue
		}
		done, err := lu.TryLocalUpdate(oid, old, new)
		d.latch.RUnlock()
		d.lm.ReleaseAll(txn)
		return done, err
	}
	return false, nil // give up on the fine path; escalate
}

// Insert adds an object under IX(tree) + X(cell).
func (d *DB) Insert(oid rtree.OID, p geom.Point) error {
	txn := d.lm.Begin()
	defer d.lm.ReleaseAll(txn)
	if err := d.lockAll(txn, dgl.IX, dgl.X, []dgl.GranuleID{d.cellOf(p)}); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return d.u.Insert(oid, p)
}

// Delete removes an object under IX(tree) + X(cell).
func (d *DB) Delete(oid rtree.OID, at geom.Point) error {
	txn := d.lm.Begin()
	defer d.lm.ReleaseAll(txn)
	if err := d.lockAll(txn, dgl.IX, dgl.X, []dgl.GranuleID{d.cellOf(at)}); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return d.u.Delete(oid, at)
}

// Search visits the objects in the window under IS(tree) + S(cells) and
// the shared physical latch, delegating to the strategy's Search (so
// GBU's memory-assisted query planning stays active). Phantom
// protection: any update that could move an object into or out of the
// window must take X on one of these cells first. The visit callback
// runs with the locks held and must not call back into the DB.
func (d *DB) Search(q geom.Rect, visit func(rtree.OID, geom.Rect) bool) error {
	txn := d.lm.Begin()
	defer d.lm.ReleaseAll(txn)
	if err := d.lockAll(txn, dgl.IS, dgl.S, d.cellsOfRect(q)); err != nil {
		return err
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	err := d.u.Search(q, visit)
	d.queries.Add(1)
	return err
}

// Query counts the objects in the window through Search.
func (d *DB) Query(q geom.Rect) (int, error) {
	count := 0
	err := d.Search(q, func(rtree.OID, geom.Rect) bool {
		count++
		return true
	})
	return count, err
}

// Nearest answers a k-nearest-neighbour query. A best-first NN
// traversal has no a-priori granule footprint — the search region grows
// until k results bound it — so the query takes S on the whole-tree
// granule (every updater holds at least IX there, which conflicts)
// plus the shared physical latch. Readers still run in parallel with
// each other; only updates are held off, exactly DGL's escalation rule
// for operations whose scope cannot be pre-declared.
func (d *DB) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	txn := d.lm.Begin()
	defer d.lm.ReleaseAll(txn)
	if err := d.lm.Acquire(txn, TreeGranule, dgl.S, d.timeout); err != nil {
		return nil, err
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	res, err := d.u.Nearest(p, k)
	d.queries.Add(1)
	return res, err
}

// Exclusive runs fn with the whole index locked out: X on the tree
// granule plus the exclusive physical latch. It is the hook for
// operations that restructure or snapshot the entire index (bulk
// loading, persistence, buffer flushes).
func (d *DB) Exclusive(fn func(core.Updater) error) error {
	txn := d.lm.Begin()
	defer d.lm.ReleaseAll(txn)
	if err := d.lm.Acquire(txn, TreeGranule, dgl.X, d.timeout); err != nil {
		return err
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return fn(d.u)
}

// View runs fn under the shared physical latch with no granule locks:
// the snapshot it sees is physically consistent (no update is mid-way
// through a page write) but not phantom-protected. Stats readers use
// it; anything that must not observe concurrent movement takes Search
// or Exclusive instead.
func (d *DB) View(fn func(core.Updater)) {
	d.latch.RLock()
	defer d.latch.RUnlock()
	fn(d.u)
}

// lockAll takes the tree intention lock then the cell locks in order.
func (d *DB) lockAll(txn *dgl.Txn, treeMode, cellMode dgl.Mode, cells []dgl.GranuleID) error {
	if err := d.lm.Acquire(txn, TreeGranule, treeMode, d.timeout); err != nil {
		return err
	}
	for _, c := range cells {
		if err := d.lm.Acquire(txn, c, cellMode, d.timeout); err != nil {
			return err
		}
	}
	return nil
}

// UpdateBatch applies an already-coalesced batch of moves, acquiring
// granule locks per leaf-group instead of per object: the changes are
// grouped by target leaf under the shared latch, then each group locks
// the union of its movement cells plus the group's leaf and parent page
// granules once, applies the whole group bottom-up (the strategy's
// group pass, then per-object local attempts on the still-buffered
// leaf), and only the changes that need an ascent or a top-down pass
// escalate to the exclusive path. Strategies without batch support run
// change by change through Update.
//
// done, when non-nil, is invoked after each change is applied; on error
// the batch stops, so done has been called exactly for the applied
// prefix (a batch is not atomic).
func (d *DB) UpdateBatch(changes []core.BatchChange, done func(core.BatchChange)) (core.BatchStats, error) {
	var st core.BatchStats
	ga, gok := d.u.(core.GroupApplier)
	lu, lok := d.u.(core.LocalUpdater)
	if !gok || !lok {
		return st, d.applySequential(changes, &st, done)
	}

	// Group by leaf under the shared latch (hash reads only).
	type group struct {
		leaf    rtree.PageID
		changes []core.BatchChange
	}
	at := make(map[rtree.PageID]int)
	var groups []group
	var loose []core.BatchChange
	d.latch.RLock()
	for _, c := range core.OrderForGrouping(d.u, changes) {
		leaf, err := ga.LeafOf(c.OID)
		if err != nil {
			loose = append(loose, c) // let Update produce the definitive error
			continue
		}
		j, ok := at[leaf]
		if !ok {
			j = len(groups)
			at[leaf] = j
			groups = append(groups, group{leaf: leaf})
		}
		groups[j].changes = append(groups[j].changes, c)
	}
	d.latch.RUnlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].leaf < groups[j].leaf })

	for _, g := range groups {
		st.Groups++
		if err := d.applyGroup(ga, lu, g.leaf, g.changes, &st, done); err != nil {
			return st, err
		}
	}
	return st, d.applySequential(loose, &st, done)
}

// applySequential applies changes one by one through the per-object
// Update path (which does its own locking and escalation), keeping the
// batch accounting.
func (d *DB) applySequential(cs []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) error {
	for _, c := range cs {
		if err := d.Update(c.OID, c.Old, c.New); err != nil {
			return err
		}
		st.Changes++
		st.Sequential++
		if done != nil {
			done(c)
		}
	}
	return nil
}

// applyGroup locks one leaf-group's scope — IX on the tree, X on the
// movement cells of every member, X on the leaf and parent page
// granules — and resolves as much of the group as possible under the
// shared latch. Members that moved leaves in the meantime go to the
// per-object Update path afterwards; members that need non-local work
// escalate directly (escalateDeclined).
func (d *DB) applyGroup(ga core.GroupApplier, lu core.LocalUpdater, leaf rtree.PageID, group []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) error {
	// The union of the group's movement cells, sorted and deduplicated,
	// with room for the leaf and parent page granules.
	cells := make([]dgl.GranuleID, 0, 2*len(group)+2)
	for _, c := range group {
		cells = append(cells, d.cellOf(c.Old), d.cellOf(c.New))
	}
	slices.Sort(cells)
	cells = slices.Compact(cells)

	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		d.latch.RLock()
		scope, err := lu.LocalScope(group[0].OID)
		d.latch.RUnlock()
		if err != nil {
			return d.applySequential(group, st, done)
		}
		// The granules to lock are the GROUP's leaf and its parent. If
		// group[0]'s object has already moved to another leaf, its scope
		// no longer names this group's pages — locking it would let the
		// remaining members write the original leaf without holding its
		// granule. Escalate instead; each member then locks for itself.
		if len(scope) == 0 || scope[0] != leaf {
			return d.applySequential(group, st, done)
		}

		txn := d.lm.Begin()
		if err := d.lockAll(txn, dgl.IX, dgl.X, d.lockSet(cells, scope)); err != nil {
			d.lm.ReleaseAll(txn)
			d.timeouts.Add(1)
			d.retries.Add(1)
			continue
		}
		// Re-validate under the locks: the scope must be unchanged and
		// every member must still live in this leaf; stragglers escalate.
		d.latch.RLock()
		scope2, err := lu.LocalScope(group[0].OID)
		if err != nil || !slices.Equal(scope, scope2) {
			d.latch.RUnlock()
			d.lm.ReleaseAll(txn)
			if err != nil {
				return d.applySequential(group, st, done)
			}
			d.retries.Add(1)
			continue
		}
		var members, stale []core.BatchChange
		for _, c := range group {
			if pg, err := ga.LeafOf(c.OID); err == nil && pg == leaf {
				members = append(members, c)
			} else {
				stale = append(stale, c)
			}
		}
		// resolved collects the members applied under the group's
		// locks; declined the ones that need an ascent or a top-down
		// pass.
		var resolved, declined []core.BatchChange
		groupResolved := 0
		if len(members) > 0 {
			un, err := ga.ApplyLeafGroup(leaf, members)
			if err != nil {
				d.latch.RUnlock()
				d.lm.ReleaseAll(txn)
				return err
			}
			for _, c := range members {
				if !slices.ContainsFunc(un, func(u core.BatchChange) bool { return u.OID == c.OID }) {
					resolved = append(resolved, c)
				}
			}
			groupResolved = len(resolved)
			// Per-object local attempts while the leaf is still buffered
			// and the granules are still held.
			for _, c := range un {
				ok, err := ga.UpdateAtLeaf(leaf, c, true)
				if err != nil {
					d.latch.RUnlock()
					d.lm.ReleaseAll(txn)
					return err
				}
				if ok {
					resolved = append(resolved, c)
				} else {
					declined = append(declined, c)
				}
			}
		}
		d.latch.RUnlock()
		d.lm.ReleaseAll(txn)

		st.GroupResolved += groupResolved
		st.LocalFallback += len(resolved) - groupResolved
		for _, c := range resolved {
			d.updates.Add(1)
			d.local.Add(1)
			d.batched.Add(1)
			st.Changes++
			if done != nil {
				done(c)
			}
		}
		if err := d.applySequential(stale, st, done); err != nil {
			return err
		}
		return d.escalateDeclined(ga, leaf, declined, st, done)
	}
	// Lock acquisition kept failing; take the per-object path.
	return d.applySequential(group, st, done)
}

// escalateDeclined applies moves of leaf's group that both the group
// pass and the local attempt declined under the group's locks. They
// need an ascent or a top-down pass, so repeating the local attempt
// (as the per-object Update path would, twice) cannot help: each goes
// straight to X on the tree plus the exclusive latch and through
// UpdateAtLeaf, which re-resolves objects that moved and leaves that
// were freed since. Every move takes its own short exclusive section;
// holding one across the batch would stall other clients' reads for
// the whole remainder.
func (d *DB) escalateDeclined(ga core.GroupApplier, leaf rtree.PageID, cs []core.BatchChange, st *core.BatchStats, done func(core.BatchChange)) error {
	for _, c := range cs {
		txn, err := d.lockExclusive(c.OID)
		if err != nil {
			return err
		}
		d.latch.Lock()
		applied, err := ga.UpdateAtLeaf(leaf, c, false)
		d.latch.Unlock()
		d.lm.ReleaseAll(txn)
		if err != nil {
			return err
		}
		if !applied {
			return fmt.Errorf("concurrent: batch update %d: per-object pass declined a full update", c.OID)
		}
		d.updates.Add(1)
		d.escalated.Add(1)
		st.Changes++
		st.LocalFallback++
		if done != nil {
			done(c)
		}
	}
	return nil
}
