package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"burtree"
)

// metricDef names a metric and its unit. The two lists below must match
// BENCHMARK.json, which the self-tests check.
type metricDef struct{ name, unit string }

// endToEnd holds the metrics a user of the index sees. Each is defined,
// and never zero, on every workload. Each gated tail is the steadiest
// percentile across seeds on a shared host: p99 for updates, p90 for
// queries (README.md gives the measurements).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_throughput", "1/s"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"knn_p50_us", "us"},
	{"knn_p90_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer holds the metrics of single layers, reported by the traced
// run. The first seven are end-to-end figures kept here, ungated: query
// p99s follow the host's CPU steal more than the index, and the others
// some workload cannot define (no physical I/O in the cache, no storage
// writes without a log, no failures when correct).
var perLayer = append([]metricDef{
	{"query_p99_us", "us"},
	{"knn_p99_us", "us"},
	{"update_io", "pages/move"},
	{"query_io", "pages/query"},
	{"io_per_op", "pages/op"},
	{"storage_bytes_per_move", "B/move"},
	{"failed_frac", "ratio"},

	{"core.inleaf_frac", "ratio"},
	{"core.extended_frac", "ratio"},
	{"core.shifted_frac", "ratio"},
	{"core.ascended_frac", "ratio"},
	{"core.topdown_frac", "ratio"},
	{"core.piggyback_per_shift", "ratio"},
	{"core.group_size", "moves/group"},
	{"core.group_resolved_frac", "ratio"},
	{"core.fallback_frac", "ratio"},
	{"core.coalesced_frac", "ratio"},

	{"rtree.splits_per_move", "1/move"},
	{"rtree.reinserts_per_move", "1/move"},
	{"rtree.height", "levels"},
	{"rtree.pages", "pages"},

	{"buffer.hit_rate", "ratio"},
	{"pagestore.reads_per_op", "pages/op"},
	{"pagestore.writes_per_op", "pages/op"},

	{"concurrent.local_frac", "ratio"},
	{"concurrent.escalated_frac", "ratio"},
	{"concurrent.batched_frac", "ratio"},
	{"concurrent.timeouts", "count"},
	{"concurrent.retries", "count"},

	{"memtable.absorbed_frac", "ratio"},
	{"memtable.merges", "count"},
	{"memtable.merge_pages_per_merged", "pages/move"},
	{"memtable.entries_end", "count"},

	{"wal.write_calls_per_move", "1/move"},

	{"shard.cost_imbalance", "ratio"},
	{"shard.object_imbalance", "ratio"},
	{"shard.cross_frac", "ratio"},
	{"rebalance.call_p50_us", "us"},
	{"rebalance.moved", "count"},
	{"rebalance.epoch_changes", "count"},

	{"persist.checkpoint_ms", "ms"},
	{"persist.recover_ms", "ms"},

	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"bench.reader_lag_ms", "ms"},
	{"bench.tracing_overhead", "ratio"},
}, spanMetrics()...)

// spanMetrics lists span.<Type>.<Method>.busy_s and .count for every
// public call a workload makes.
func spanMetrics() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		out = append(out, metricDef{"span." + s + ".busy_s", "s"}, metricDef{"span." + s + ".count", "count"})
	}
	return out
}

// snapshot is one reading of every counter the benchmark observes from
// outside the index.
type snapshot struct {
	st    burtree.Stats
	cs    burtree.ConcurrencyStats // summed over shards
	loads []burtree.ShardLoad
	epoch uint64
	proc  procIO
	cpu   cpuTimes
	mem   runtime.MemStats
}

// procIO is the process's /proc/self/io accounting.
type procIO struct {
	ok           bool
	wchar, syscw int64
}

func readProcIO() procIO {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}
	}
	defer f.Close()
	p := procIO{ok: true}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "wchar":
			p.wchar = n
		case "syscw":
			p.syscw = n
		}
	}
	return p
}

// cpuTimes is the host's aggregate CPU time from /proc/stat, in clock
// ticks. Steal is time the hypervisor gave to other guests while this
// one wanted to run; it explains most run-to-run spread on a shared
// host.
type cpuTimes struct{ total, steal int64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user through steal; guest time is already in user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealFrac is the share of host CPU time stolen during the timed phase.
func (r *result) stealFrac() float64 {
	return frac(r.after.cpu.steal-r.before.cpu.steal, r.after.cpu.total-r.before.cpu.total)
}

func sumConcurrency(cs []burtree.ConcurrencyStats) burtree.ConcurrencyStats {
	var t burtree.ConcurrencyStats
	for _, c := range cs {
		t.Updates += c.Updates
		t.Queries += c.Queries
		t.Timeouts += c.Timeouts
		t.Retries += c.Retries
		t.Local += c.Local
		t.Escalated += c.Escalated
		t.Batched += c.Batched
	}
	return t
}

// batchTotals sums the BatchResults of the timed phase.
type batchTotals struct {
	changes, applied, coalesced, groups, resolved int64
	fallback, crossShard, absorbed, pageIO        int64
}

func (b *batchTotals) add(n int, r burtree.BatchResult) {
	b.changes += int64(n)
	b.applied += int64(r.Applied + r.Combined)
	b.coalesced += int64(r.Coalesced)
	b.groups += int64(r.Groups)
	b.resolved += int64(r.GroupResolved)
	b.fallback += int64(r.Fallback)
	b.crossShard += int64(r.CrossShard)
	b.absorbed += int64(r.Absorbed)
	b.pageIO += int64(r.PageIO)
}

func (b *batchTotals) merge(o batchTotals) {
	b.changes += o.changes
	b.applied += o.applied
	b.coalesced += o.coalesced
	b.groups += o.groups
	b.resolved += o.resolved
	b.fallback += o.fallback
	b.crossShard += o.crossShard
	b.absorbed += o.absorbed
	b.pageIO += o.pageIO
}

// summary is the distribution of one kind of call's latency.
type summary struct {
	p50, p90, p99, mean time.Duration
}

// summarize sorts d in place. Percentiles are nearest-rank.
func summarize(d []time.Duration) summary {
	if len(d) == 0 {
		return summary{}
	}
	slices.Sort(d)
	var total time.Duration
	for _, v := range d {
		total += v
	}
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(d))+0.999999) - 1
		return d[max(0, min(i, len(d)-1))]
	}
	return summary{p50: rank(0.50), p90: rank(0.90), p99: rank(0.99), mean: total / time.Duration(len(d))}
}

// result is everything a workload measured.
type result struct {
	attempted int64 // public calls made in the timed phase
	failed    int64

	setup   []time.Duration
	elapsed time.Duration // timed phase
	// exhausted is set when a client ran out of pre-generated moves and
	// stopped before the timed phase ended.
	exhausted bool

	moves          int64 // applied moves
	windows, knns  int64 // queries
	update         summary
	window, knn    summary
	readerLag      summary // sharded-durable-skew's open-loop reader
	updatePages    int64   // bracketed foreground pages of the moves
	queryPages     int64   // bracketed pages of the queries
	bracketQueries bool    // queryPages is attributable (single client)

	batched bool
	batch   batchTotals

	sharded       bool // defines the shard, rebalance, persist, memtable and reader metrics
	rebalance     []time.Duration
	moved         int64
	checkpoint    []time.Duration
	recovery      time.Duration
	concurrent    bool
	before, after snapshot
	liveHeap      uint64

	tracer *tracer
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metrics derives every metric the workload defines; a metric it does
// not define is absent from the map.
func (r *result) metrics() map[string]float64 {
	m := map[string]float64{}
	moves, ops := r.moves, r.moves+r.windows+r.knns
	d := func(f func(s *snapshot) int64) int64 { return f(&r.after) - f(&r.before) }

	m["setup_s"] = summarize(slices.Clone(r.setup)).p50.Seconds()
	m["update_throughput"] = float64(moves) / r.elapsed.Seconds()
	m["update_p50_us"] = us(r.update.p50)
	m["update_p99_us"] = us(r.update.p99)
	if r.windows > 0 {
		m["query_p50_us"] = us(r.window.p50)
		m["query_p90_us"] = us(r.window.p90)
		m["query_p99_us"] = us(r.window.p99)
	}
	if r.knns > 0 {
		m["knn_p50_us"] = us(r.knn.p50)
		m["knn_p90_us"] = us(r.knn.p90)
		m["knn_p99_us"] = us(r.knn.p99)
	}
	m["live_heap_mb"] = float64(r.liveHeap) / 1e6

	pages := d(func(s *snapshot) int64 { return s.st.DiskReads + s.st.DiskWrites })
	m["update_io"] = frac(r.updatePages, moves)
	if r.bracketQueries {
		m["query_io"] = frac(r.queryPages, r.windows+r.knns)
	}
	m["io_per_op"] = frac(pages, ops)
	if r.after.proc.ok {
		m["storage_bytes_per_move"] = frac(d(func(s *snapshot) int64 { return s.proc.wchar }), moves)
		m["wal.write_calls_per_move"] = frac(d(func(s *snapshot) int64 { return s.proc.syscw }), moves)
	}
	m["failed_frac"] = frac(r.failed, r.attempted)

	out := func(f func(o *snapshot) int64) int64 { return d(f) }
	total := out(func(s *snapshot) int64 { return s.st.Outcomes.Total() })
	shifted := out(func(s *snapshot) int64 { return s.st.Outcomes.Shifted })
	m["core.inleaf_frac"] = frac(out(func(s *snapshot) int64 { return s.st.Outcomes.InLeaf }), total)
	m["core.extended_frac"] = frac(out(func(s *snapshot) int64 { return s.st.Outcomes.Extended }), total)
	m["core.shifted_frac"] = frac(shifted, total)
	m["core.ascended_frac"] = frac(out(func(s *snapshot) int64 { return s.st.Outcomes.Ascended }), total)
	m["core.topdown_frac"] = frac(out(func(s *snapshot) int64 { return s.st.Outcomes.TopDown }), total)
	m["core.piggyback_per_shift"] = frac(out(func(s *snapshot) int64 { return s.st.Outcomes.Piggyback }), shifted)
	if r.batched {
		b := r.batch
		tree := b.applied - b.absorbed // moves that took the tree path in the foreground
		m["core.group_size"] = frac(tree, b.groups)
		m["core.group_resolved_frac"] = frac(b.resolved, tree)
		m["core.fallback_frac"] = frac(b.fallback, tree)
		m["core.coalesced_frac"] = frac(b.coalesced, b.changes)
	}

	m["rtree.splits_per_move"] = frac(d(func(s *snapshot) int64 { return s.st.Splits }), moves)
	m["rtree.reinserts_per_move"] = frac(d(func(s *snapshot) int64 { return s.st.Reinserts }), moves)
	m["rtree.height"] = float64(r.after.st.Height)
	m["rtree.pages"] = float64(r.after.st.Pages)

	hits := d(func(s *snapshot) int64 { return s.st.BufferHits })
	reads := d(func(s *snapshot) int64 { return s.st.DiskReads })
	m["buffer.hit_rate"] = frac(hits, hits+reads)
	m["pagestore.reads_per_op"] = frac(reads, ops)
	m["pagestore.writes_per_op"] = frac(d(func(s *snapshot) int64 { return s.st.DiskWrites }), ops)

	if r.concurrent {
		upd := d(func(s *snapshot) int64 { return s.cs.Updates })
		m["concurrent.local_frac"] = frac(d(func(s *snapshot) int64 { return s.cs.Local }), upd)
		m["concurrent.escalated_frac"] = frac(d(func(s *snapshot) int64 { return s.cs.Escalated }), upd)
		m["concurrent.batched_frac"] = frac(d(func(s *snapshot) int64 { return s.cs.Batched }), upd)
		m["concurrent.timeouts"] = float64(d(func(s *snapshot) int64 { return s.cs.Timeouts }))
		m["concurrent.retries"] = float64(d(func(s *snapshot) int64 { return s.cs.Retries }))
	}
	if r.sharded {
		mt := func(f func(t burtree.MemtableStats) int64) int64 {
			return f(r.after.st.Memtable) - f(r.before.st.Memtable)
		}
		m["memtable.absorbed_frac"] = frac(mt(func(t burtree.MemtableStats) int64 { return t.Absorbed }), moves)
		m["memtable.merges"] = float64(mt(func(t burtree.MemtableStats) int64 { return t.Merges }))
		m["memtable.merge_pages_per_merged"] = frac(mt(func(t burtree.MemtableStats) int64 { return t.MergePages }),
			mt(func(t burtree.MemtableStats) int64 { return t.Merged }))
		m["memtable.entries_end"] = float64(r.after.st.Memtable.Entries)
	}
	if r.sharded {
		n := float64(len(r.after.loads))
		var maxShare float64
		var maxObj, objs int
		for _, l := range r.after.loads {
			maxShare = max(maxShare, l.Share)
			maxObj = max(maxObj, l.Objects)
			objs += l.Objects
		}
		m["shard.cost_imbalance"] = maxShare * n
		m["shard.object_imbalance"] = frac(int64(maxObj), int64(objs)) * n
		m["shard.cross_frac"] = frac(r.batch.crossShard, moves)
		reb := slices.Clone(r.rebalance)
		m["rebalance.call_p50_us"] = us(summarize(reb).p50)
		m["rebalance.moved"] = float64(r.moved)
		m["rebalance.epoch_changes"] = float64(r.after.epoch - r.before.epoch)
		cp := slices.Clone(r.checkpoint)
		m["persist.checkpoint_ms"] = ms(summarize(cp).p50)
		m["persist.recover_ms"] = ms(r.recovery)
	}

	m["runtime.allocs_per_op"] = frac(int64(r.after.mem.Mallocs-r.before.mem.Mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = frac(int64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc), ops)
	m["runtime.gc_cycles"] = float64(r.after.mem.NumGC - r.before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(r.after.mem.PauseTotalNs-r.before.mem.PauseTotalNs) / 1e6

	if r.sharded {
		m["bench.reader_lag_ms"] = ms(r.readerLag.mean)
	}
	if r.tracer != nil {
		r.tracer.metrics(m)
	}
	return m
}
