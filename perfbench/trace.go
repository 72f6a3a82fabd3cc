package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanNames lists every public call the workloads make, as Type.Method.
// Open stands for the front-end's constructor (Open, OpenConcurrent,
// OpenSharded).
var spanNames = []string{
	"Index.Open", "Index.BulkInsert", "Index.Update", "Index.Count", "Index.Nearest",
	"ConcurrentIndex.Open", "ConcurrentIndex.BulkInsert", "ConcurrentIndex.UpdateBatch",
	"ConcurrentIndex.Count", "ConcurrentIndex.Nearest",
	"ShardedIndex.Open", "ShardedIndex.BulkInsert", "ShardedIndex.UpdateBatch",
	"ShardedIndex.Count", "ShardedIndex.Nearest", "ShardedIndex.Rebalance", "ShardedIndex.Checkpoint",
}

// spanID indexes spanNames.
type spanID uint8

func spanOf(name string) spanID {
	for i, s := range spanNames {
		if s == name {
			return spanID(i)
		}
	}
	panic("perfbench: unknown span " + name)
}

// span is one public call: which, by which client, when, and the
// counter deltas attributable to it.
type span struct {
	id         spanID
	client     uint8
	start, end time.Duration // since the tracer was created
	pages      int64         // physical pages the call incurred; -1 when not attributable
	moves      int64         // moves the call applied
}

// spanLog is one client's spans, kept in memory in fixed-size chunks so
// recording allocates once per chunk, not per call. A nil log records
// nothing.
type spanLog struct {
	chunks [][]span
	// moves applied by calls that started in traced and in untraced
	// slices, for the tracing overhead.
	movesOn, movesOff int64
}

const chunkSpans = 4096

// tracer alternates tracing on and off in fixed slices of the timed
// phase, so one run yields both the per-layer spans and the overhead
// they cost: the update throughput of traced slices relative to
// untraced ones. A nil tracer is tracing off.
type tracer struct {
	base       time.Time
	origin     time.Time // start of the timed phase
	slice      time.Duration
	logs       []*spanLog
	onTime     time.Duration
	offTime    time.Duration
	setupSpans *spanLog
}

// traceSlice is the length of one traced or untraced slice.
const traceSlice = 250 * time.Millisecond

func newTracer(clients int) *tracer {
	t := &tracer{base: time.Now(), slice: traceSlice, setupSpans: &spanLog{}}
	for i := 0; i < clients; i++ {
		t.logs = append(t.logs, &spanLog{})
	}
	return t
}

// log returns client c's span log (nil when tracing is off).
func (t *tracer) log(c int) *spanLog {
	if t == nil {
		return nil
	}
	return t.logs[c]
}

// setupLog returns the log for set-up calls (nil when tracing is off).
func (t *tracer) setupLog() *spanLog {
	if t == nil {
		return nil
	}
	return t.setupSpans
}

// begin marks the start of the timed phase.
func (t *tracer) begin(now time.Time) {
	if t != nil {
		t.origin = now
	}
}

// on reports whether a call starting at now falls in a traced slice.
func (t *tracer) on(now time.Time) bool {
	if t == nil || t.origin.IsZero() || now.Before(t.origin) {
		return false
	}
	return (now.Sub(t.origin)/t.slice)%2 == 1
}

// finish marks the end of the timed phase and splits its length into
// traced and untraced time.
func (t *tracer) finish(now time.Time) {
	if t == nil {
		return
	}
	e := now.Sub(t.origin)
	full := e / t.slice
	t.onTime = full / 2 * t.slice
	if full%2 == 1 {
		t.onTime += e - full*t.slice
	}
	t.offTime = e - t.onTime
}

func (l *spanLog) record(t *tracer, id spanID, client int, t0, t1 time.Time, pages, moves int64) {
	if l == nil {
		return
	}
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == chunkSpans {
		l.chunks = append(l.chunks, make([]span, 0, chunkSpans))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, span{id: id, client: uint8(client), start: t0.Sub(t.base), end: t1.Sub(t.base), pages: pages, moves: moves})
}

// count credits moves to the traced or untraced slices.
func (l *spanLog) count(traced bool, moves int64) {
	if l == nil {
		return
	}
	if traced {
		l.movesOn += moves
	} else {
		l.movesOff += moves
	}
}

func (t *tracer) all() []*spanLog { return append([]*spanLog{t.setupSpans}, t.logs...) }

// metrics adds the span and overhead metrics. Spans of calls the
// workload never makes stay undefined.
func (t *tracer) metrics(m map[string]float64) {
	busy := make([]time.Duration, len(spanNames))
	count := make([]int64, len(spanNames))
	var on, off int64
	for _, l := range t.all() {
		for _, c := range l.chunks {
			for _, s := range c {
				busy[s.id] += s.end - s.start
				count[s.id]++
			}
		}
		on += l.movesOn
		off += l.movesOff
	}
	for i, name := range spanNames {
		if count[i] > 0 {
			m["span."+name+".busy_s"] = busy[i].Seconds()
			m["span."+name+".count"] = float64(count[i])
		}
	}
	if on > 0 && off > 0 && t.onTime > 0 && t.offTime > 0 {
		m["bench.tracing_overhead"] = (float64(on) / t.onTime.Seconds()) / (float64(off) / t.offTime.Seconds())
	}
}

// writeFile writes every span as CSV under dir/spans and returns the
// file's path.
func (t *tracer) writeFile(dir, workload string, seed int64) (string, error) {
	sub := filepath.Join(dir, "spans")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(sub, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,client,start_ns,end_ns,pages,moves")
	for _, l := range t.all() {
		for _, c := range l.chunks {
			for _, s := range c {
				fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.id], s.client, s.start.Nanoseconds(), s.end.Nanoseconds(), s.pages, s.moves)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
