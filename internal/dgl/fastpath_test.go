package dgl

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUncontendedCycleAllocatesNothing pins the lock fast path: the
// update footprint — IX on the tree, X on two cells, X on a leaf and
// its parent page — followed by ReleaseAll allocates nothing once the
// granules are recycled and the Txn has been used once.
func TestUncontendedCycleAllocatesNothing(t *testing.T) {
	m := NewManager()
	txn := m.Begin()
	cycle := func() {
		if err := m.Acquire(txn, 0, IX, time.Second); err != nil {
			t.Fatal(err)
		}
		for _, g := range []GranuleID{17, 18, 1<<32 + 5, 1<<32 + 9} {
			if err := m.Acquire(txn, g, X, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(txn)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("uncontended acquire/release cycle allocates %.2f per run, want 0", allocs)
	}
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after release: %+v", s)
	}
	if len(m.free) != 5 {
		t.Fatalf("free list holds %d granules, want the 5 just released", len(m.free))
	}
	if n := txn.HeldCount(); n != 0 {
		t.Fatalf("txn still holds %d granules", n)
	}
}

// TestTimedOutHeadWakesFollowers: when the request at the head of a
// queue times out, compatible requests queued behind it are granted at
// once instead of waiting for the next release.
func TestTimedOutHeadWakesFollowers(t *testing.T) {
	m := NewManager()
	holder, writer, reader := m.Begin(), m.Begin(), m.Begin()
	if err := m.Acquire(holder, 3, S, 0); err != nil {
		t.Fatal(err)
	}
	wErr := make(chan error, 1)
	go func() { wErr <- m.Acquire(writer, 3, X, 50*time.Millisecond) }()
	for m.Stats().Waiters == 0 {
		time.Sleep(time.Millisecond)
	}
	rErr := make(chan error, 1)
	go func() { rErr <- m.Acquire(reader, 3, S, 5*time.Second) }()
	if err := <-wErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer: err = %v, want timeout", err)
	}
	select {
	case err := <-rErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still queued behind a withdrawn request")
	}
	m.ReleaseAll(reader)
	m.ReleaseAll(holder)
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty: %+v", s)
	}
}

// TestRecycledGranuleStress mixes shared grants, upgrades to X that
// can deadlock (and time out), short-timeout exclusive requests, single
// releases and ReleaseAll over a handful of granules that are dropped
// and recycled constantly. Txns are reused across rounds. Run it under
// -race: it checks mutual exclusion of X against every other holder and
// that the table drains to empty.
func TestRecycledGranuleStress(t *testing.T) {
	m := NewManager()
	const (
		workers  = 8
		granules = 4
	)
	rounds := 400
	if testing.Short() {
		rounds = 150
	}
	var shared, excl [granules]atomic.Int32
	var timeouts atomic.Int64
	check := func(g GranuleID) {
		if x, s := excl[g].Load(), shared[g].Load(); x != 1 || s != 0 {
			t.Errorf("granule %d: X granted alongside %d exclusive and %d shared holders", g, x-1, s)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			txn := m.Begin()
			for i := 0; i < rounds; i++ {
				g := GranuleID(rng.Intn(granules))
				timeout := time.Duration(1+rng.Intn(3)) * time.Millisecond
				switch rng.Intn(3) {
				case 0: // S, then try to upgrade to X
					if err := m.Acquire(txn, g, S, 0); err != nil {
						t.Error(err)
						return
					}
					shared[g].Add(1)
					err := m.Acquire(txn, g, X, timeout)
					switch {
					case err == nil:
						shared[g].Add(-1)
						excl[g].Add(1)
						check(g)
						excl[g].Add(-1)
					case errors.Is(err, ErrTimeout):
						timeouts.Add(1)
						shared[g].Add(-1)
					default:
						t.Error(err)
						return
					}
				case 1: // X with a short timeout
					err := m.Acquire(txn, g, X, timeout)
					switch {
					case err == nil:
						excl[g].Add(1)
						check(g)
						excl[g].Add(-1)
					case errors.Is(err, ErrTimeout):
						timeouts.Add(1)
					default:
						t.Error(err)
						return
					}
				default: // S on two granules, one released early
					g2 := (g + 1) % granules
					for _, h := range []GranuleID{g, g2} {
						if err := m.Acquire(txn, h, S, 0); err != nil {
							t.Error(err)
							return
						}
						shared[h].Add(1)
					}
					shared[g].Add(-1)
					m.Release(txn, g)
					if _, ok := txn.Held(g); ok {
						t.Errorf("granule %d still held after Release", g)
					}
					shared[g2].Add(-1)
				}
				m.ReleaseAll(txn)
				if n := txn.HeldCount(); n != 0 {
					t.Errorf("txn holds %d granules after ReleaseAll", n)
				}
			}
		}(w)
	}
	wg.Wait()
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table did not drain: %+v", s)
	}
	t.Logf("%d timeouts", timeouts.Load())
}
