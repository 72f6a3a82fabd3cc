package main

import (
	"fmt"
	"math"
	"slices"

	"burtree"
)

// index is the read surface the correctness gate checks; all three
// front-ends provide it.
type index interface {
	Search(q burtree.Rect) ([]uint64, error)
	Count(q burtree.Rect) (int, error)
	Nearest(p burtree.Point, k int) ([]burtree.Neighbor, error)
	Location(id uint64) (burtree.Point, bool)
	Len() int
	CheckInvariants() error
}

// probes is the fixed sample of queries the gate answers by brute force.
type probes struct {
	windows []burtree.Rect
	points  []burtree.Point
}

const probeK = 10

// applyMoves advances the oracle positions (index = object id) through
// a stream of acknowledged moves.
func applyMoves(pos []burtree.Point, moves []burtree.Change) {
	for _, c := range moves {
		pos[c.ID] = c.To
	}
}

// checkIndex is the correctness gate: the index's invariants hold, every
// object is exactly where the oracle says, and every probe window and
// nearest-neighbour query matches a brute-force scan of the oracle.
func checkIndex(x index, want []burtree.Point, pr probes) error {
	if err := x.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	if n := x.Len(); n != len(want) {
		return fmt.Errorf("index holds %d objects, want %d", n, len(want))
	}
	for id, p := range want {
		got, ok := x.Location(uint64(id))
		if !ok {
			return fmt.Errorf("object %d missing", id)
		}
		if got != p {
			return fmt.Errorf("object %d at %v, want %v", id, got, p)
		}
	}
	for _, q := range pr.windows {
		wantIDs := bruteWindow(want, q)
		ids, err := x.Search(q)
		if err != nil {
			return fmt.Errorf("search %v: %w", q, err)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, wantIDs) {
			return fmt.Errorf("search %v: %d ids, want %d", q, len(ids), len(wantIDs))
		}
		n, err := x.Count(q)
		if err != nil {
			return fmt.Errorf("count %v: %w", q, err)
		}
		if n != len(wantIDs) {
			return fmt.Errorf("count %v = %d, want %d", q, n, len(wantIDs))
		}
	}
	for _, p := range pr.points {
		got, err := x.Nearest(p, probeK)
		if err != nil {
			return fmt.Errorf("nearest %v: %w", p, err)
		}
		wantD := bruteNearest(want, p, probeK)
		if len(got) != len(wantD) {
			return fmt.Errorf("nearest %v: %d neighbours, want %d", p, len(got), len(wantD))
		}
		for i, n := range got {
			if n.ID >= uint64(len(want)) || want[n.ID] != n.Location {
				return fmt.Errorf("nearest %v: neighbour %d reported at %v", p, n.ID, n.Location)
			}
			if !near(n.Dist, dist(p, n.Location)) || !near(n.Dist, wantD[i]) {
				return fmt.Errorf("nearest %v: rank %d at distance %g, want %g", p, i, n.Dist, wantD[i])
			}
		}
	}
	return nil
}

func bruteWindow(pos []burtree.Point, q burtree.Rect) []uint64 {
	var ids []uint64
	for id, p := range pos {
		if p.X >= q.MinX && p.X <= q.MaxX && p.Y >= q.MinY && p.Y <= q.MaxY {
			ids = append(ids, uint64(id))
		}
	}
	return ids
}

// bruteNearest returns the k smallest distances from p, ascending.
func bruteNearest(pos []burtree.Point, p burtree.Point, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, o := range pos {
		d := dist(p, o)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i, _ := slices.BinarySearch(best, d)
		best = slices.Insert(best, i, d)
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func dist(a, b burtree.Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }
