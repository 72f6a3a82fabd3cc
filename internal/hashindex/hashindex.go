// Package hashindex implements the secondary object-id index of the paper
// (Figure 2): a disk-resident hash table mapping object ids to the leaf
// page currently holding their entry. Bottom-up updates start here —
// "Locate via the secondary object-ID index (e.g., hash table) the leaf
// node with the object" — at a cost of roughly one page access, which is
// exactly how the paper's cost analysis charges it.
//
// The table is a static-directory chained hash: a fixed array of bucket
// head pages, each a chain of slot pages. All traffic flows through the
// buffer pool, so hot buckets may be cached just like hot tree nodes.
package hashindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"burtree/internal/buffer"
	"burtree/internal/pagestore"
)

// ErrNotFound reports a lookup of an unmapped object id.
var ErrNotFound = errors.New("hashindex: oid not mapped")

const (
	pageMagic  = 0xB3
	headerSize = 16 // magic, pad, count u16, pad, next page u64
	slotSize   = 16 // oid u64 + leaf page u64
)

// Index is the oid → leaf-page map. Buckets are guarded by striped
// latches so operations on different buckets — including their (possibly
// simulated-latency) page I/O — proceed in parallel; the index is safe
// for concurrent use. Logical consistency across index and tree remains
// the caller's job (DGL).
type Index struct {
	pool     *buffer.Pool
	buckets  []pagestore.PageID
	slotsPer int
	size     atomic.Int64
	stripes  [64]stripe
}

// stripe is one latch plus its private scratch: the page buffer, the
// lookup scan, and the decoded pages Set, Delete and ComputeStats
// reuse (Set holds at most three at once: the page being read, the
// first page with a free slot and the chain's last page).
type stripe struct {
	mu      sync.Mutex
	pageBuf []byte
	scan    lookupScan
	pages   [3]page
}

// freePage returns a stripe page that is neither a nor b.
func (st *stripe) freePage(a, b *page) *page {
	for i := range st.pages {
		if p := &st.pages[i]; p != a && p != b {
			return p
		}
	}
	panic("hashindex: no free stripe page")
}

// lookupScan searches one bucket page for an oid in place (a
// buffer.Scanner). Each stripe owns one, so Lookup hands it to the pool
// without allocating; the stripe latch serializes its use.
type lookupScan struct {
	slotsPer int
	oid      uint64

	magic byte
	count int
	found bool
	leaf  pagestore.PageID
	next  pagestore.PageID
}

// Scan records the page header and, when the header is sane, the
// oid's leaf or the chain's next page. A bad header stops the scan
// before any slot is read; Lookup turns it into an error.
func (s *lookupScan) Scan(b []byte) {
	s.magic = b[0]
	s.count = int(binary.LittleEndian.Uint16(b[2:]))
	s.found = false
	if s.magic != pageMagic || s.count > s.slotsPer {
		return
	}
	s.next = pagestore.PageID(binary.LittleEndian.Uint64(b[8:]))
	oid := s.oid
	for slots := b[headerSize : headerSize+s.count*slotSize]; len(slots) >= slotSize; slots = slots[slotSize:] {
		if binary.LittleEndian.Uint64(slots) == oid {
			s.found = true
			s.leaf = pagestore.PageID(binary.LittleEndian.Uint64(slots[8:]))
			return
		}
	}
}

// page is the decoded form of one hash page.
type page struct {
	id    pagestore.PageID
	next  pagestore.PageID
	oids  []uint64
	leafs []pagestore.PageID
}

// New creates an index with capacity sized for expectedSize entries at
// roughly 70% slot occupancy. The directory is allocated eagerly; bucket
// chains grow on demand.
func New(pool *buffer.Pool, expectedSize int) *Index {
	ps := pool.Store().PageSize()
	slots := (ps - headerSize) / slotSize
	if slots < 1 {
		panic(fmt.Sprintf("hashindex: page size %d too small", ps))
	}
	nb := expectedSize / (slots * 7 / 10)
	if nb < 1 {
		nb = 1
	}
	idx := &Index{
		pool:     pool,
		buckets:  make([]pagestore.PageID, nb),
		slotsPer: slots,
	}
	for i := range idx.stripes {
		idx.stripes[i].pageBuf = make([]byte, ps)
		idx.stripes[i].scan.slotsPer = slots
	}
	// Bucket heads are created lazily (InvalidPage marks an empty bucket)
	// so small indexes stay small.
	return idx
}

// Size returns the number of mapped object ids.
func (x *Index) Size() int { return int(x.size.Load()) }

// Buckets returns the directory width (for tests and sizing reports).
func (x *Index) Buckets() int { return len(x.buckets) }

// bucketFor hashes the oid into a directory slot. Fibonacci hashing gives
// good spread for sequential oids, which the workloads use.
func (x *Index) bucketFor(oid uint64) int {
	h := oid * 0x9E3779B97F4A7C15
	return int(h % uint64(len(x.buckets)))
}

// Bucket returns the directory slot oid hashes to. The batch pipeline
// clusters its lookup phase by bucket so that lookups landing on the
// same hash page run back to back and hit the buffer instead of paying
// one page read each.
func (x *Index) Bucket(oid uint64) int { return x.bucketFor(oid) }

// Lookup returns the leaf page currently holding oid. It scans each
// bucket page in place in the buffer pool (buffer.Pool.ScanPage):
// no page copy, no decode, no allocation.
//
//burlint:hotpath
func (x *Index) Lookup(oid uint64) (pagestore.PageID, error) {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()
	sc := &st.scan
	sc.oid = oid
	for pid := x.buckets[b]; pid != pagestore.InvalidPage; pid = sc.next {
		if err := x.pool.ScanPage(pid, st.pageBuf, sc); err != nil {
			return pagestore.InvalidPage, fmt.Errorf("hashindex: reading page %d: %w", pid, err)
		}
		if err := x.checkHeader(pid, sc.magic, sc.count); err != nil {
			return pagestore.InvalidPage, err
		}
		if sc.found {
			return sc.leaf, nil
		}
	}
	return pagestore.InvalidPage, fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// Set maps oid to leaf, inserting or updating as needed. Updating an
// entry to the leaf it already maps to performs no write.
func (x *Index) Set(oid uint64, leaf pagestore.PageID) error {
	if leaf == pagestore.InvalidPage {
		return fmt.Errorf("hashindex: mapping oid %d to invalid page", oid)
	}
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()
	head := x.buckets[b]

	var (
		firstWithSpace *page
		last           *page
	)
	for pid := head; pid != pagestore.InvalidPage; {
		p := st.freePage(firstWithSpace, last)
		if err := x.readPage(st, pid, p); err != nil {
			return err
		}
		for i, o := range p.oids {
			if o == oid {
				if p.leafs[i] == leaf {
					return nil
				}
				p.leafs[i] = leaf
				return x.writePage(st, p)
			}
		}
		if firstWithSpace == nil && len(p.oids) < x.slotsPer {
			firstWithSpace = p
		}
		last = p
		pid = p.next
	}
	x.size.Add(1)
	if firstWithSpace != nil {
		firstWithSpace.oids = append(firstWithSpace.oids, oid)
		firstWithSpace.leafs = append(firstWithSpace.leafs, leaf)
		return x.writePage(st, firstWithSpace)
	}
	// Allocate a new page: either a new bucket head or an overflow page.
	np := st.freePage(last, nil)
	np.id, np.next = x.pool.Store().Alloc(), pagestore.InvalidPage
	np.oids = append(np.oids[:0], oid)
	np.leafs = append(np.leafs[:0], leaf)
	if err := x.writePage(st, np); err != nil {
		return err
	}
	if last == nil {
		x.buckets[b] = np.id
		return nil
	}
	last.next = np.id
	return x.writePage(st, last)
}

// Delete removes the mapping for oid.
func (x *Index) Delete(oid uint64) error {
	b := x.bucketFor(oid)
	st := &x.stripes[b%len(x.stripes)]
	st.mu.Lock()
	defer st.mu.Unlock()
	head := x.buckets[b]
	p := &st.pages[0]
	for pid := head; pid != pagestore.InvalidPage; {
		if err := x.readPage(st, pid, p); err != nil {
			return err
		}
		for i, o := range p.oids {
			if o == oid {
				n := len(p.oids) - 1
				p.oids[i], p.oids[n] = p.oids[n], p.oids[i]
				p.leafs[i], p.leafs[n] = p.leafs[n], p.leafs[i]
				p.oids = p.oids[:n]
				p.leafs = p.leafs[:n]
				x.size.Add(-1)
				return x.writePage(st, p)
			}
		}
		pid = p.next
	}
	return fmt.Errorf("%w: %d", ErrNotFound, oid)
}

// readPage decodes page id into p, reusing p's slot slices.
func (x *Index) readPage(st *stripe, id pagestore.PageID, p *page) error {
	if err := x.pool.ReadPage(id, st.pageBuf); err != nil {
		return fmt.Errorf("hashindex: reading page %d: %w", id, err)
	}
	b := st.pageBuf
	count := int(binary.LittleEndian.Uint16(b[2:]))
	if err := x.checkHeader(id, b[0], count); err != nil {
		return err
	}
	p.id = id
	p.next = pagestore.PageID(binary.LittleEndian.Uint64(b[8:]))
	p.oids, p.leafs = p.oids[:0], p.leafs[:0]
	for off, end := headerSize, headerSize+count*slotSize; off < end; off += slotSize {
		p.oids = append(p.oids, binary.LittleEndian.Uint64(b[off:]))
		p.leafs = append(p.leafs, pagestore.PageID(binary.LittleEndian.Uint64(b[off+8:])))
	}
	return nil
}

// checkHeader rejects a page that is not a hash page or whose slot count
// exceeds the page's capacity.
func (x *Index) checkHeader(id pagestore.PageID, magic byte, count int) error {
	if magic != pageMagic {
		return fmt.Errorf("hashindex: page %d is not a hash page (magic %#x)", id, magic)
	}
	if count > x.slotsPer {
		return fmt.Errorf("hashindex: page %d count %d exceeds capacity %d", id, count, x.slotsPer)
	}
	return nil
}

func (x *Index) writePage(st *stripe, p *page) error {
	b := st.pageBuf
	for i := range b {
		b[i] = 0
	}
	b[0] = pageMagic
	binary.LittleEndian.PutUint16(b[2:], uint16(len(p.oids)))
	binary.LittleEndian.PutUint64(b[8:], uint64(p.next))
	off := headerSize
	for i := range p.oids {
		binary.LittleEndian.PutUint64(b[off:], p.oids[i])
		binary.LittleEndian.PutUint64(b[off+8:], uint64(p.leafs[i]))
		off += slotSize
	}
	if err := x.pool.WritePage(p.id, b); err != nil {
		return fmt.Errorf("hashindex: writing page %d: %w", p.id, err)
	}
	return nil
}

// Stats summarizes the physical shape of the index.
type Stats struct {
	Buckets       int
	Pages         int
	Entries       int
	MaxChainPages int
	AvgChainPages float64
}

// ComputeStats scans every bucket chain.
func (x *Index) ComputeStats() (Stats, error) {
	s := Stats{Buckets: len(x.buckets), Entries: x.Size()}
	used := 0
	for b, head := range x.buckets {
		st := &x.stripes[b%len(x.stripes)]
		st.mu.Lock()
		chain := 0
		p := &st.pages[0]
		for pid := head; pid != pagestore.InvalidPage; {
			if err := x.readPage(st, pid, p); err != nil {
				st.mu.Unlock()
				return s, err
			}
			chain++
			pid = p.next
		}
		st.mu.Unlock()
		if chain > 0 {
			used++
			s.Pages += chain
			if chain > s.MaxChainPages {
				s.MaxChainPages = chain
			}
		}
	}
	if used > 0 {
		s.AvgChainPages = float64(s.Pages) / float64(used)
	}
	return s, nil
}

// Directory returns a copy of the bucket-head page directory, for
// persistence alongside the page store.
func (x *Index) Directory() []pagestore.PageID {
	return append([]pagestore.PageID(nil), x.buckets...)
}

// RestoreDirectory replaces the directory and entry count after the
// backing pages have been reloaded. The index must not have been used.
func (x *Index) RestoreDirectory(dir []pagestore.PageID, size int) error {
	if x.Size() != 0 {
		return errors.New("hashindex: RestoreDirectory on non-empty index")
	}
	if len(dir) == 0 {
		return errors.New("hashindex: empty directory")
	}
	x.buckets = append([]pagestore.PageID(nil), dir...)
	x.size.Store(int64(size))
	return nil
}
