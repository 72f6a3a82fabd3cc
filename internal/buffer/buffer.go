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
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"burtree/internal/pagestore"
	"burtree/internal/stats"
)

// Pool is an LRU write-back buffer pool over a pagestore.Store. It is safe
// for concurrent use; the mutex plays the role of a buffer-manager latch
// while higher-level consistency is the job of the DGL lock manager.
type Pool struct {
	mu       sync.Mutex
	store    *pagestore.Store
	io       *stats.IO
	cap      int
	frames   map[pagestore.PageID]*list.Element
	lru      *list.List // front = most recently used
	inflight map[pagestore.PageID]*inflightWrite
	// version counts disk-content events per page (write-back
	// completions and discards). A read miss snapshots it before its
	// unlatched disk read and re-checks after: a bump means the disk
	// may have changed under the read, so caching it could serve stale
	// bytes forever.
	version map[pagestore.PageID]uint64
}

type frame struct {
	id    pagestore.PageID
	data  []byte
	dirty bool
}

// inflightWrite is a dirty victim on its way to disk. Readers serve from
// it; a newer eviction of the same page chains behind it so disk writes
// of one page are totally ordered.
//
// The entry stays in the in-flight table until its write-back completes
// — even when canceled by Discard — so Flush's drain and later
// evictions of the same page keep their ordering against it.
type inflightWrite struct {
	id       pagestore.PageID
	data     []byte
	done     chan struct{}
	prev     *inflightWrite // earlier write of the same page, if still running
	canceled bool           // set under p.mu: the page was discarded; skip the disk write
}

// New creates a pool of at most capacity pages over store. Physical
// accesses are charged to the store's counters; buffer hits are charged to
// the same counter set. Capacity zero disables caching entirely.
func New(store *pagestore.Store, capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{
		store:    store,
		io:       store.IO(),
		cap:      capacity,
		frames:   make(map[pagestore.PageID]*list.Element, capacity),
		lru:      list.New(),
		inflight: make(map[pagestore.PageID]*inflightWrite),
		version:  make(map[pagestore.PageID]uint64),
	}
}

// Capacity returns the configured frame count.
func (p *Pool) Capacity() int { return p.cap }

// Len returns the number of resident frames.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// Store returns the underlying page store.
func (p *Pool) Store() *pagestore.Store { return p.store }

// ReadPage copies the page into dst, serving from the buffer when
// possible. dst must be exactly one page long.
func (p *Pool) ReadPage(id pagestore.PageID, dst []byte) error {
	if p.cap == 0 {
		return p.store.ReadInto(id, dst)
	}
	if len(dst) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if el, ok := p.frames[id]; ok {
			p.lru.MoveToFront(el)
			copy(dst, el.Value.(*frame).data)
			p.mu.Unlock()
			p.io.CountBufferHit()
			return nil
		}
		if iw, ok := p.inflight[id]; ok && !iw.canceled {
			// The latest contents are on their way to disk; serve them and
			// re-cache without any physical read. (A canceled write holds
			// discarded data and must never resurface.)
			f := &frame{id: id, data: append([]byte(nil), iw.data...)}
			copy(dst, f.data)
			victim := p.insertLocked(f)
			p.mu.Unlock()
			p.io.CountBufferHit()
			return p.writeBack(victim)
		}
		ver := p.version[id]
		if attempt >= 2 {
			// Repeated disk-content changes raced the unlatched reads
			// below; read under the latch, which is totally ordered
			// against write-back completions. Rare, so the lost overlap
			// does not matter.
			data := make([]byte, p.store.PageSize())
			if err := p.store.ReadInto(id, data); err != nil {
				p.mu.Unlock()
				return err
			}
			copy(dst, data)
			victim := p.insertLocked(&frame{id: id, data: data})
			p.mu.Unlock()
			return p.writeBack(victim)
		}
		p.mu.Unlock()

		// Miss: fetch from disk with no latch held.
		data := make([]byte, p.store.PageSize())
		if err := p.store.ReadInto(id, data); err != nil {
			return err
		}

		p.mu.Lock()
		if el, ok := p.frames[id]; ok {
			// Another thread cached the page meanwhile; its copy may be
			// newer (a logical write could have landed), so prefer it.
			p.lru.MoveToFront(el)
			copy(dst, el.Value.(*frame).data)
			p.mu.Unlock()
			return nil
		}
		if iw, ok := p.inflight[id]; ok && !iw.canceled {
			copy(data, iw.data)
		} else if p.version[id] != ver {
			// A write-back or discard completed between the two latch
			// holds: the bytes read may predate it. Caching them would
			// serve stale data until the next eviction; retry instead.
			p.mu.Unlock()
			continue
		}
		f := &frame{id: id, data: data}
		copy(dst, data)
		victim := p.insertLocked(f)
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
func (p *Pool) ScanPage(id pagestore.PageID, scratch []byte, s Scanner) error {
	if len(scratch) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	if p.cap > 0 {
		p.mu.Lock()
		if el, ok := p.frames[id]; ok {
			p.lru.MoveToFront(el)
			s.Scan(el.Value.(*frame).data)
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
func (p *Pool) WritePage(id pagestore.PageID, src []byte) error {
	if p.cap == 0 {
		return p.store.Write(id, src)
	}
	if len(src) != p.store.PageSize() {
		return pagestore.ErrPageSize
	}
	p.mu.Lock()
	if el, ok := p.frames[id]; ok {
		f := el.Value.(*frame)
		copy(f.data, src)
		f.dirty = true
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		return nil
	}
	f := &frame{id: id, data: append([]byte(nil), src...), dirty: true}
	victim := p.insertLocked(f)
	p.mu.Unlock()
	return p.writeBack(victim)
}

// insertLocked adds f as the most recently used frame. If the pool is
// full it detaches the LRU frame; a dirty victim is published to the
// in-flight table and returned for physical write-back by the caller
// after the latch is released. Caller holds p.mu.
func (p *Pool) insertLocked(f *frame) *inflightWrite {
	var iw *inflightWrite
	if p.lru.Len() >= p.cap {
		if tail := p.lru.Back(); tail != nil {
			victim := tail.Value.(*frame)
			p.lru.Remove(tail)
			delete(p.frames, victim.id)
			if victim.dirty {
				iw = &inflightWrite{
					id:   victim.id,
					data: victim.data,
					done: make(chan struct{}),
					prev: p.inflight[victim.id],
				}
				p.inflight[victim.id] = iw
			}
		}
	}
	p.frames[f.id] = p.lru.PushFront(f)
	return iw
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
	if iw.prev != nil {
		<-iw.prev.done
	}
	p.mu.Lock()
	canceled := iw.canceled
	p.mu.Unlock()
	var err error
	if !canceled {
		err = p.store.Write(iw.id, iw.data)
	}
	p.mu.Lock()
	if p.inflight[iw.id] == iw {
		delete(p.inflight, iw.id)
	}
	p.version[iw.id]++
	p.mu.Unlock()
	close(iw.done)
	if err != nil && !errors.Is(err, pagestore.ErrPageFreed) {
		// A freed page means the node was released while its last
		// eviction was in flight; the contents are irrelevant.
		return fmt.Errorf("buffer: evicting page %d: %w", iw.id, err)
	}
	return nil
}

// drainInflightLocked waits for all in-flight writes to finish. The
// latch is released while waiting and re-acquired before returning.
func (p *Pool) drainInflightLocked() {
	for {
		var iw *inflightWrite
		for _, w := range p.inflight {
			iw = w
			break
		}
		if iw == nil {
			return
		}
		p.mu.Unlock()
		<-iw.done
		p.mu.Lock()
	}
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
	if el, ok := p.frames[id]; ok {
		p.lru.Remove(el)
		delete(p.frames, id)
	}
	for iw := p.inflight[id]; iw != nil; iw = iw.prev {
		iw.canceled = true
	}
	p.version[id]++
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
	p.drainInflightLocked()
	for el := p.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
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
	p.frames = make(map[pagestore.PageID]*list.Element, p.cap)
	p.lru.Init()
	// Cancel (rather than drop) in-flight evictions so their stale data
	// cannot land after the invalidation point.
	for _, iw := range p.inflight {
		for w := iw; w != nil; w = w.prev {
			w.canceled = true
		}
	}
}

// Resident reports whether the page currently occupies a frame.
func (p *Pool) Resident(id pagestore.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}
