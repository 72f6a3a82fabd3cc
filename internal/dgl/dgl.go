// Package dgl implements a Dynamic-Granular-Locking style lock manager
// (after Chakrabarti & Mehrotra, cited by the paper for concurrency
// control in R-trees): multi-granularity locks with the standard
// IS/IX/S/SIX/X mode lattice, per-granule FIFO wait queues, lock
// upgrades, and timeouts for deadlock recovery.
//
// Granules are opaque 64-bit ids. The throughput experiment (paper §5.4)
// locks a tree-level granule in intention mode plus fine leaf-region
// granules, exactly the two-tier shape DGL prescribes (external granules
// + leaf granules). Bottom-up updates acquire their granules directly at
// the fine level, which is why they "fit naturally into DGL": top-down
// operations meet their locks on the way down.
package dgl

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a multi-granularity lock mode.
type Mode int

const (
	// IS is intention-shared.
	IS Mode = iota
	// IX is intention-exclusive.
	IX
	// S is shared.
	S
	// SIX is shared + intention-exclusive.
	SIX
	// X is exclusive.
	X
)

func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compat[a][b] reports whether a holder in mode a is compatible with a
// requester in mode b.
var compat = [5][5]bool{
	IS:  {IS: true, IX: true, S: true, SIX: true, X: false},
	IX:  {IS: true, IX: true, S: false, SIX: false, X: false},
	S:   {IS: true, IX: false, S: true, SIX: false, X: false},
	SIX: {IS: true, IX: false, S: false, SIX: false, X: false},
	X:   {IS: false, IX: false, S: false, SIX: false, X: false},
}

// Compatible reports whether the two modes may be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return compat[a][b] }

// sup[a][b] is the least mode covering both a and b (lock conversion).
var sup = [5][5]Mode{
	IS:  {IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IX:  {IS: IX, IX: IX, S: SIX, SIX: SIX, X: X},
	S:   {IS: S, IX: SIX, S: S, SIX: SIX, X: X},
	SIX: {IS: SIX, IX: SIX, S: SIX, SIX: SIX, X: X},
	X:   {IS: X, IX: X, S: X, SIX: X, X: X},
}

// Covers reports whether holding a implies the rights of b.
func Covers(a, b Mode) bool { return sup[a][b] == a }

// GranuleID identifies a lockable granule. The meaning of ids is up to
// the caller (tree granule, grid cells, leaf pages, ...).
type GranuleID uint64

// ErrTimeout reports that a lock request waited past its deadline; the
// caller should release everything and retry (deadlock recovery).
var ErrTimeout = errors.New("dgl: lock wait timed out")

// Txn is one lock owner. Its held locks live in a small slice backed
// by an inline array, so a transaction of up to heldInline granules
// costs one allocation (Begin) and ReleaseAll keeps the capacity: a
// Txn may be reused for another round of Acquire calls after
// ReleaseAll.
type Txn struct {
	id      uint64
	mu      sync.Mutex
	held    []heldLock
	heldBuf [heldInline]heldLock
}

// heldInline covers the common update footprint: the tree granule, a
// few movement cells and a leaf plus parent page.
const heldInline = 8

type heldLock struct {
	g    GranuleID
	mode Mode
}

// heldLocked returns the mode txn holds on g. Caller holds t.mu.
func (t *Txn) heldLocked(g GranuleID) (Mode, bool) {
	for _, h := range t.held {
		if h.g == g {
			return h.mode, true
		}
	}
	return 0, false
}

// setHeld records mode on g, replacing an earlier (weaker) mode.
func (t *Txn) setHeld(g GranuleID, mode Mode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.held {
		if t.held[i].g == g {
			t.held[i].mode = mode
			return
		}
	}
	t.held = append(t.held, heldLock{g: g, mode: mode})
}

// Manager is the lock table. Granules are created on first use and
// dropped once they have no holder and no waiter; dropped granules are
// kept on a bounded free list and reused, so the uncontended
// acquire/release cycle allocates nothing.
type Manager struct {
	mu       sync.Mutex
	granules map[GranuleID]*granule
	free     []*granule
	nextTxn  uint64
}

// maxFreeGranules bounds the recycled-granule list.
const maxFreeGranules = 256

type waiter struct {
	txn     *Txn
	mode    Mode
	upgrade bool
	ready   chan struct{}
	granted bool
}

// granule is one lock-table entry. holders has at most one entry per
// Txn; holder sets are small (a handful of concurrent operations), so
// a slice scan beats a map and allocates nothing once grown.
type granule struct {
	holders []holder
	queue   []*waiter
}

type holder struct {
	txn  *Txn
	mode Mode
}

// setHolder grants mode to txn, replacing its earlier mode if any.
func (gr *granule) setHolder(txn *Txn, mode Mode) {
	for i := range gr.holders {
		if gr.holders[i].txn == txn {
			gr.holders[i].mode = mode
			return
		}
	}
	gr.holders = append(gr.holders, holder{txn: txn, mode: mode})
}

// removeHolder drops txn from the holder set (order is irrelevant).
func (gr *granule) removeHolder(txn *Txn) {
	for i := range gr.holders {
		if gr.holders[i].txn == txn {
			last := len(gr.holders) - 1
			gr.holders[i] = gr.holders[last]
			gr.holders[last] = holder{}
			gr.holders = gr.holders[:last]
			return
		}
	}
}

// compatibleLocked reports whether mode is compatible with every
// holder of gr other than txn itself.
func (gr *granule) compatibleLocked(txn *Txn, mode Mode) bool {
	for _, h := range gr.holders {
		if h.txn != txn && !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{granules: make(map[GranuleID]*granule)}
}

// Begin starts a new lock owner.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	m.nextTxn++
	id := m.nextTxn
	m.mu.Unlock()
	t := &Txn{id: id}
	t.held = t.heldBuf[:0]
	return t
}

// Held returns the mode txn holds on g (and whether it holds anything).
func (t *Txn) Held(g GranuleID) (Mode, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.heldLocked(g)
}

// HeldCount returns the number of granules the transaction holds.
func (t *Txn) HeldCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held)
}

// Acquire obtains (or upgrades to) the given mode on granule g, waiting
// up to timeout (0 means wait forever). On ErrTimeout the request is
// withdrawn; locks already held are untouched.
//
//burlint:hotpath
func (m *Manager) Acquire(txn *Txn, g GranuleID, mode Mode, timeout time.Duration) error {
	txn.mu.Lock()
	cur, holds := txn.heldLocked(g)
	txn.mu.Unlock()
	target := mode
	upgrade := false
	if holds {
		if Covers(cur, mode) {
			return nil // already strong enough
		}
		target = sup[cur][mode]
		upgrade = true
	}

	m.mu.Lock()
	gr := m.granules[g]
	if gr == nil {
		gr = m.newGranuleLocked()
		m.granules[g] = gr
	}
	// Fresh requests respect FIFO: they are granted only when no other
	// request is queued. Upgrades only check the other current holders.
	if (upgrade || len(gr.queue) == 0) && gr.compatibleLocked(txn, target) {
		gr.setHolder(txn, target)
		m.mu.Unlock()
		txn.setHeld(g, target)
		return nil
	}
	return m.wait(txn, g, gr, target, upgrade, timeout)
}

// wait queues a request that cannot be granted now and blocks until it
// is granted or times out. Caller holds m.mu; wait releases it.
func (m *Manager) wait(txn *Txn, g GranuleID, gr *granule, target Mode, upgrade bool, timeout time.Duration) error {
	w := &waiter{txn: txn, mode: target, upgrade: upgrade, ready: make(chan struct{})}
	gr.queue = append(gr.queue, w)
	if upgrade {
		// Conversions queue ahead of fresh requests to bound starvation.
		copy(gr.queue[1:], gr.queue[:len(gr.queue)-1])
		gr.queue[0] = w
	}
	m.mu.Unlock()

	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-w.ready:
		txn.setHeld(g, target)
		return nil
	case <-timeoutC:
		m.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed before the withdrawal.
			m.mu.Unlock()
			<-w.ready
			txn.setHeld(g, target)
			return nil
		}
		for i, q := range gr.queue {
			if q == w {
				copy(gr.queue[i:], gr.queue[i+1:])
				gr.queue[len(gr.queue)-1] = nil
				gr.queue = gr.queue[:len(gr.queue)-1]
				break
			}
		}
		// The withdrawn request may have been the only thing holding
		// back the requests queued behind it.
		m.wakeLocked(g, gr)
		m.mu.Unlock()
		return fmt.Errorf("%w: granule %d mode %v", ErrTimeout, g, target)
	}
}

// newGranuleLocked returns a recycled granule, or a new one.
func (m *Manager) newGranuleLocked() *granule {
	if n := len(m.free); n > 0 {
		gr := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return gr
	}
	return &granule{}
}

// Release drops txn's lock on g and wakes compatible waiters.
func (m *Manager) Release(txn *Txn, g GranuleID) {
	txn.mu.Lock()
	ok := false
	for i := range txn.held {
		if txn.held[i].g == g {
			txn.held = append(txn.held[:i], txn.held[i+1:]...)
			ok = true
			break
		}
	}
	txn.mu.Unlock()
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(txn, g)
}

// ReleaseAll drops every lock txn holds. The Txn keeps its capacity and
// may be used again.
//
//burlint:hotpath
func (m *Manager) ReleaseAll(txn *Txn) {
	// txn.mu is taken before m.mu here and never the other way round
	// (Acquire drops each before taking the other), so the nesting is
	// deadlock-free.
	txn.mu.Lock()
	defer txn.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range txn.held {
		m.releaseLocked(txn, h.g)
	}
	txn.held = txn.held[:0]
}

// releaseLocked drops txn from g's holders and wakes the queue.
func (m *Manager) releaseLocked(txn *Txn, g GranuleID) {
	gr := m.granules[g]
	if gr == nil {
		return
	}
	gr.removeHolder(txn)
	m.wakeLocked(g, gr)
}

// wakeLocked grants the longest compatible prefix of the wait queue,
// then drops the granule onto the free list if nothing holds or awaits
// it.
func (m *Manager) wakeLocked(g GranuleID, gr *granule) {
	n := 0
	for ; n < len(gr.queue); n++ {
		w := gr.queue[n]
		if !gr.compatibleLocked(w.txn, w.mode) {
			break
		}
		gr.setHolder(w.txn, w.mode)
		w.granted = true
		close(w.ready)
	}
	if n > 0 {
		rest := copy(gr.queue, gr.queue[n:])
		clear(gr.queue[rest:])
		gr.queue = gr.queue[:rest]
	}
	if len(gr.holders) == 0 && len(gr.queue) == 0 {
		delete(m.granules, g)
		if len(m.free) < maxFreeGranules {
			m.free = append(m.free, gr)
		}
	}
}

// Stats reports the current lock table occupancy.
type Stats struct {
	Granules int
	Waiters  int
}

// Stats returns a snapshot of table occupancy.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Granules: len(m.granules)}
	for _, gr := range m.granules {
		s.Waiters += len(gr.queue)
	}
	return s
}
