// Package buffer implements the LRU buffer pool that sits between the
// R-tree and the simulated disk. The paper (§5, following Leutenegger &
// Lopez) runs every experiment with a buffer sized as a percentage of the
// database, so all page traffic in this library flows through a Pool.
//
// The pool is a classic write-back cache: logical reads that hit a frame
// cost no disk access; misses read the page and may evict the
// least-recently-used frame, writing it out first if dirty. Logical writes
// dirty the frame and cost nothing until eviction or Flush. With capacity
// zero the pool degrades to direct disk access, which reproduces the
// paper's 0 %-buffer configuration.
//
// The pool latch is never held across physical I/O: misses read the disk
// after releasing it, and dirty evictions move the victim to an in-flight
// table that readers consult, so concurrent operations overlap their disk
// time — essential for the multi-threaded throughput study, where page
// latency is simulated.
//
// Steady-state page traffic allocates nothing and touches no map. Page
// ids are dense from 1, so a page table indexed by id maps each page to
// its frame slot, its newest in-flight write-back and its disk-content
// version. The LRU list is intrusive (int32 links between slots), and
// page buffers are recycled: a clean victim's slot keeps its buffer for
// the incoming page, a dirty victim's buffer travels with its write-back
// and returns to a spare list once that write-back has completed. Buffers
// are only read or reused under the latch, except by the one write-back
// that owns them.
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// nilSlot terminates the intrusive LRU links.
const nilSlot int32 = -1

// Pool is an LRU write-back buffer pool over a pagestore.Store. It is safe
// for concurrent use; the mutex plays the role of a buffer-manager latch
// while higher-level consistency is the job of the DGL lock manager.
type Pool struct {
	mu sync.Mutex
	// written is signaled on mu whenever a write-back completes: a
	// write-back waits on it for its predecessor on the same page, and
	// Flush for pending to drain.
	written sync.Cond
	store   *pagestore.Store
	io      *stats.IO
	cap     int

	// pages is the page table, indexed by page id. It grows under the
	// latch to cover the store's allocated pages.
	pages []pageState
	// frames holds the slots; they are laid out on first use, up to
	// cap of them.
	frames     []frame
	head, tail int32 // most and least recently used slot
	resident   int
	freeSlots  []int32  // laid-out slots holding no page (each keeps its buffer)
	spare      [][]byte // page buffers no slot or write-back holds
	pending    int      // write-backs published and not yet completed
	freeWrites []*inflightWrite
}

// pageState is one page's entry in the page table.
type pageState struct {
	slot int32 // 1 + the frame slot holding the page; 0 = not resident
	// version counts disk-content events of the page (write-back
	// completions and discards). A read miss snapshots it before its
	// unlatched disk read and re-checks after: a bump means the disk
	// may have changed under the read, so caching it could serve stale
	// bytes forever.
	version uint64
	// inflight is the newest write-back of the page still running.
	inflight *inflightWrite
}

// frame is one slot of the pool: a resident page and its LRU links.
type frame struct {
	id         pagestore.PageID
	data       []byte
	prev, next int32 // towards the most / least recently used end
	dirty      bool
}

// inflightWrite is a dirty victim on its way to disk. Readers serve from
// it; a newer eviction of the same page chains behind it so disk writes
// of one page are totally ordered.
//
// The entry stays in the page table until its write-back completes —
// even when canceled by Discard — so Flush's drain and later evictions
// of the same page keep their ordering against it. All fields are
// guarded by the pool latch; data is also read, unlatched, by the
// write-back that owns it.
type inflightWrite struct {
	id       pagestore.PageID
	data     []byte
	prev     *inflightWrite // earlier write of the same page, if still linked
	done     bool
	canceled bool // the page was discarded; skip the disk write
}

// New creates a pool of at most capacity pages over store. Physical
// accesses are charged to the store's counters; buffer hits are charged to
// the same counter set. Capacity zero disables caching entirely.
func New(store *pagestore.Store, capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	p := &Pool{
		store: store,
		io:    store.IO(),
		cap:   capacity,
		head:  nilSlot,
		tail:  nilSlot,
	}
	p.written.L = &p.mu
	return p
}

// Capacity returns the configured frame count.
func (p *Pool) Capacity() int { return p.cap }

// Len returns the number of resident frames.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// Store returns the underlying page store.
func (p *Pool) Store() *pagestore.Store { return p.store }

// ReadPage copies the page into dst, serving from the buffer when
// possible. dst must be exactly one page long.
//
//burlint:hotpath
func (p *Pool) ReadPage(id pagestore.PageID, dst []byte) error {
	if p.cap == 0 {
		return p.store.ReadInto(id, dst)
	}
	if len(dst) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if s := p.slotLocked(id); s != nilSlot {
			p.touchLocked(s)
			copy(dst, p.frames[s].data)
			p.mu.Unlock()
			p.io.CountBufferHit()
			return nil
		}
		if iw := p.inflightLocked(id); iw != nil {
			// The latest contents are on their way to disk; serve them and
			// re-cache without any physical read. (A canceled write holds
			// discarded data and must never resurface.)
			copy(dst, iw.data)
			victim := p.cacheLocked(id, dst, false)
			p.mu.Unlock()
			p.io.CountBufferHit()
			return p.writeBack(victim)
		}
		ver := p.versionLocked(id)
		if attempt >= 2 {
			// Repeated disk-content changes raced the unlatched reads
			// below; read under the latch, which is totally ordered
			// against write-back completions. Rare, so the lost overlap
			// does not matter.
			if err := p.store.ReadInto(id, dst); err != nil {
				p.mu.Unlock()
				return err
			}
			victim := p.cacheLocked(id, dst, false)
			p.mu.Unlock()
			return p.writeBack(victim)
		}
		p.mu.Unlock()

		// Miss: fetch from disk into the caller's buffer with no latch
		// held; the frame copy is taken under the latch below.
		if err := p.store.ReadInto(id, dst); err != nil {
			return err
		}

		p.mu.Lock()
		if s := p.slotLocked(id); s != nilSlot {
			// Another thread cached the page meanwhile; its copy may be
			// newer (a logical write could have landed), so prefer it.
			p.touchLocked(s)
			copy(dst, p.frames[s].data)
			p.mu.Unlock()
			return nil
		}
		if iw := p.inflightLocked(id); iw != nil {
			copy(dst, iw.data)
		} else if p.versionLocked(id) != ver {
			// A write-back or discard completed between the two latch
			// holds: the bytes read may predate it. Caching them would
			// serve stale data until the next eviction; retry instead.
			p.mu.Unlock()
			continue
		}
		victim := p.cacheLocked(id, dst, false)
		p.mu.Unlock()
		return p.writeBack(victim)
	}
}

// Scanner reads one page in place. Scan may run under the pool latch on
// the resident frame itself, so it must only read the page, must not
// retain it past the call, must not call back into the pool, and must
// stay short: at most one read-only pass over the page.
type Scanner interface {
	Scan(page []byte)
}

// ScanPage runs s over the contents of page id. On a hit it scans the
// resident frame in place under the pool latch — no copy, with exactly
// ReadPage's LRU move and hit count. Anything else (a miss, an
// in-flight write-back, a capacity-zero pool) reads the page into
// scratch through ReadPage, so it is charged exactly as ReadPage
// charges it, and scans scratch. scratch must be exactly one page
// long.
//
//burlint:hotpath
func (p *Pool) ScanPage(id pagestore.PageID, scratch []byte, s Scanner) error {
	if len(scratch) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	if p.cap > 0 {
		p.mu.Lock()
		if slot := p.slotLocked(id); slot != nilSlot {
			p.touchLocked(slot)
			s.Scan(p.frames[slot].data)
			p.mu.Unlock()
			p.io.CountBufferHit()
			return nil
		}
		p.mu.Unlock()
	}
	if err := p.ReadPage(id, scratch); err != nil {
		return err
	}
	s.Scan(scratch)
	return nil
}

// WritePage stores the page contents in the buffer, deferring the
// physical write until eviction or Flush. src must be exactly one page
// long.
//
//burlint:hotpath
func (p *Pool) WritePage(id pagestore.PageID, src []byte) error {
	if p.cap == 0 {
		return p.store.Write(id, src)
	}
	if len(src) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	p.mu.Lock()
	if s := p.slotLocked(id); s != nilSlot {
		f := &p.frames[s]
		copy(f.data, src)
		f.dirty = true
		p.touchLocked(s)
		p.mu.Unlock()
		return nil
	}
	if uint64(id) >= uint64(len(p.pages)) && !p.growLocked(id) {
		p.mu.Unlock()
		return fmt.Errorf("buffer: writing page %d: %w", id, pagestore.ErrPageBounds)
	}
	victim := p.cacheLocked(id, src, true)
	p.mu.Unlock()
	return p.writeBack(victim)
}

// slotLocked returns the slot holding page id, or nilSlot. Caller holds
// p.mu.
func (p *Pool) slotLocked(id pagestore.PageID) int32 {
	if uint64(id) < uint64(len(p.pages)) {
		return p.pages[id].slot - 1
	}
	return nilSlot
}

// inflightLocked returns the newest in-flight write-back of page id
// unless there is none or it was canceled. Caller holds p.mu.
func (p *Pool) inflightLocked(id pagestore.PageID) *inflightWrite {
	if uint64(id) < uint64(len(p.pages)) {
		if iw := p.pages[id].inflight; iw != nil && !iw.canceled {
			return iw
		}
	}
	return nil
}

// versionLocked returns the disk-content version of page id. Caller
// holds p.mu.
func (p *Pool) versionLocked(id pagestore.PageID) uint64 {
	if uint64(id) < uint64(len(p.pages)) {
		return p.pages[id].version
	}
	return 0
}

// growLocked extends the page table to every page the store has
// allocated. It reports false, leaving the table alone, when id lies
// beyond them. Caller holds p.mu and has checked id is not covered yet.
func (p *Pool) growLocked(id pagestore.PageID) bool {
	n := p.store.NumAllocated() + 1
	if uint64(id) >= uint64(n) {
		return false
	}
	p.pages = append(p.pages, make([]pageState, n-len(p.pages))...) //burlint:ignore hotpath cold: the table grows only when the store does, amortized by append
	return true
}

// cacheLocked makes page id the most recently used frame, holding a copy
// of src. If the pool is full it detaches the LRU frame; a dirty victim
// is published to the page table as an in-flight write and returned for
// physical write-back by the caller after the latch is released. The
// page must not be resident and must lie in the store. Caller holds p.mu.
func (p *Pool) cacheLocked(id pagestore.PageID, src []byte, dirty bool) *inflightWrite {
	if uint64(id) >= uint64(len(p.pages)) {
		p.growLocked(id)
	}
	var iw *inflightWrite
	var s int32
	if p.resident >= p.cap {
		// Evict the LRU frame and reuse its slot; a clean victim's
		// buffer stays with the slot.
		s = p.tail
		p.unlinkLocked(s)
		v := &p.frames[s]
		p.pages[v.id].slot = 0
		if v.dirty {
			iw = p.publishWriteLocked(v.id, v.data)
			v.data = p.bufferLocked()
		}
	} else {
		s = p.freeSlotLocked()
		p.resident++
	}
	f := &p.frames[s]
	f.id, f.dirty = id, dirty
	copy(f.data, src)
	p.pages[id].slot = s + 1
	p.pushFrontLocked(s)
	return iw
}

// freeSlotLocked returns an unlinked slot with a buffer, laying a new
// one out when every laid-out slot is in use. Caller holds p.mu.
func (p *Pool) freeSlotLocked() int32 {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		return s
	}
	if len(p.frames) == cap(p.frames) {
		// Grow to at most cap slots so a large pool that never fills
		// pays only for the slots it uses.
		n := min(max(2*len(p.frames), 64), p.cap)
		grown := make([]frame, len(p.frames), n) //burlint:ignore hotpath cold: slots are laid out at most once each, up to the capacity
		copy(grown, p.frames)
		p.frames = grown
	}
	p.frames = append(p.frames, frame{data: p.bufferLocked(), prev: nilSlot, next: nilSlot})
	return int32(len(p.frames) - 1)
}

// bufferLocked returns a page buffer from the spare list, allocating
// one only when the list is empty. Caller holds p.mu.
func (p *Pool) bufferLocked() []byte {
	if n := len(p.spare); n > 0 {
		b := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return b
	}
	return make([]byte, p.store.PageSize()) //burlint:ignore hotpath first use: buffers are recycled through the spare list afterwards
}

// publishWriteLocked registers data as the newest in-flight write of
// page id, chained behind any earlier one still running. Caller holds
// p.mu.
func (p *Pool) publishWriteLocked(id pagestore.PageID, data []byte) *inflightWrite {
	var iw *inflightWrite
	if n := len(p.freeWrites); n > 0 {
		iw = p.freeWrites[n-1]
		p.freeWrites[n-1] = nil
		p.freeWrites = p.freeWrites[:n-1]
	} else {
		iw = new(inflightWrite)
	}
	st := &p.pages[id]
	*iw = inflightWrite{id: id, data: data, prev: st.inflight}
	st.inflight = iw
	p.pending++
	return iw
}

// touchLocked makes slot s the most recently used. Caller holds p.mu.
func (p *Pool) touchLocked(s int32) {
	if p.head != s {
		p.unlinkLocked(s)
		p.pushFrontLocked(s)
	}
}

// unlinkLocked removes slot s from the LRU list. Caller holds p.mu.
func (p *Pool) unlinkLocked(s int32) {
	f := &p.frames[s]
	if f.prev != nilSlot {
		p.frames[f.prev].next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nilSlot {
		p.frames[f.next].prev = f.prev
	} else {
		p.tail = f.prev
	}
	f.prev, f.next = nilSlot, nilSlot
}

// pushFrontLocked links slot s in as the most recently used. Caller
// holds p.mu.
func (p *Pool) pushFrontLocked(s int32) {
	f := &p.frames[s]
	f.prev, f.next = nilSlot, p.head
	if p.head != nilSlot {
		p.frames[p.head].prev = s
	} else {
		p.tail = s
	}
	p.head = s
}

// writeBack performs the physical write of an evicted dirty frame with
// no latch held, after any earlier write of the same page completes. A
// write canceled by Discard skips the disk entirely — its data belongs
// to a freed page that may since have been reallocated, and landing it
// late would clobber the new page behind Flush's back.
func (p *Pool) writeBack(iw *inflightWrite) error {
	if iw == nil {
		return nil
	}
	p.mu.Lock()
	for iw.prev != nil {
		if !iw.prev.done {
			p.written.Wait()
			continue
		}
		// The predecessor is done and nothing else links to it: this
		// write is its only successor, and readers and Discard reach
		// writes only through the newest one and its prev chain.
		prev := iw.prev
		iw.prev = nil
		p.freeWrites = append(p.freeWrites, prev)
	}
	id, data, canceled := iw.id, iw.data, iw.canceled
	p.mu.Unlock()
	var err error
	if !canceled {
		err = p.store.Write(id, data)
	}
	p.mu.Lock()
	st := &p.pages[id]
	st.version++
	iw.done = true
	iw.data = nil
	p.spare = append(p.spare, data)
	if st.inflight == iw {
		st.inflight = nil
		p.freeWrites = append(p.freeWrites, iw)
	}
	p.pending--
	p.written.Broadcast()
	p.mu.Unlock()
	if err != nil && !errors.Is(err, pagestore.ErrPageFreed) {
		// A freed page means the node was released while its last
		// eviction was in flight; the contents are irrelevant.
		return fmt.Errorf("buffer: evicting page %d: %w", id, err)
	}
	return nil
}

// Discard drops the page from the pool without writing it back. Used when
// a page is freed: its contents must not resurface.
//
// An in-flight eviction of the page is canceled, not forgotten: the
// entry stays in the table until its write-back completes, so Flush
// still drains it and a later eviction of a reallocated page with the
// same id still orders behind it — but the discarded bytes themselves
// never reach the disk. (Dropping the entry instead would let the
// stale write land after the page is reallocated and rewritten,
// invisible to Flush: a snapshot taken then would miss the newest
// version of the page.)
func (p *Pool) Discard(id pagestore.PageID) {
	if p.cap == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if uint64(id) >= uint64(len(p.pages)) && !p.growLocked(id) {
		return
	}
	st := &p.pages[id]
	if st.slot != 0 {
		s := st.slot - 1
		p.unlinkLocked(s)
		st.slot = 0
		p.resident--
		p.freeSlots = append(p.freeSlots, s)
	}
	for iw := st.inflight; iw != nil; iw = iw.prev {
		iw.canceled = true
	}
	st.version++
}

// Flush writes all dirty frames to disk. Frames stay resident (clean).
// Any in-flight eviction writes are drained first so the flushed
// contents are the final disk state.
func (p *Pool) Flush() error {
	if p.cap == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.written.Wait()
	}
	for s := p.head; s != nilSlot; s = p.frames[s].next {
		f := &p.frames[s]
		if !f.dirty {
			continue
		}
		if err := p.store.Write(f.id, f.data); err != nil {
			return fmt.Errorf("buffer: flushing page %d: %w", f.id, err)
		}
		f.dirty = false
	}
	return nil
}

// Invalidate drops every frame without writing anything back. Tests use it
// to force cold-cache behaviour.
func (p *Pool) Invalidate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := p.head; s != nilSlot; {
		f := &p.frames[s]
		next := f.next
		p.pages[f.id].slot = 0
		f.prev, f.next = nilSlot, nilSlot
		p.freeSlots = append(p.freeSlots, s)
		s = next
	}
	p.head, p.tail, p.resident = nilSlot, nilSlot, 0
	// Cancel (rather than drop) in-flight evictions so their stale data
	// cannot land after the invalidation point.
	for i := range p.pages {
		for iw := p.pages[i].inflight; iw != nil; iw = iw.prev {
			iw.canceled = true
		}
	}
}

// Resident reports whether the page currently occupies a frame.
func (p *Pool) Resident(id pagestore.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slotLocked(id) != nilSlot
}
