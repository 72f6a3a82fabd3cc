// Command perfbench is the API-level benchmark of burtree. It drives
// Index, ConcurrentIndex and ShardedIndex through their public methods
// on three named workloads, checks every answer against an oracle, and
// prints one JSON object on the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer metrics. It exits
// non-zero, printing no result, when any output is wrong.
//
// Build and run it through run.sh from the repository root; README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool
	objects  int    // indexed objects; the self-tests shrink it
	setups   int    // set-up repetitions; setup_s is their median
	workdir  string // where durability directories and span files go
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{objects: defaultObjects, setups: defaultSetups}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for durability state and span files")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded with the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if fs.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	printRecord(stdout, cfg)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if res.exhausted {
		fmt.Fprintf(stderr, "perfbench: note: a client ran out of pre-generated moves after %.3fs of the timed phase\n", res.elapsed.Seconds())
	}
	m := res.metrics()
	printReport(stdout, cfg, res, m)
	if cfg.trace {
		path, err := res.tracer.writeFile(cfg.workdir, cfg.workload, cfg.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	line, err := resultLine(res, m, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// printRecord prints the reproducibility record every run starts with.
func printRecord(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v objects=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.objects)
	fmt.Fprintf(w, "record: nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
}

// printReport prints every metric the workload defines, end-to-end and
// per-layer, one per line; metrics the workload does not define read
// n/a.
func printReport(w io.Writer, cfg config, res *result, m map[string]float64) {
	fmt.Fprintf(w, "calls attempted=%d failed=%d moves=%d queries=%d timed=%.3fs cpu_steal=%.1f%%\n",
		res.attempted, res.failed, res.moves, res.windows+res.knns, res.elapsed.Seconds(), 100*res.stealFrac())
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			v, ok := m[d.name]
			if !ok {
				fmt.Fprintf(w, "  %-40s %14s %s\n", d.name, "n/a", d.unit)
				continue
			}
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if cfg.trace {
		fmt.Fprintln(w, "  (per-layer figures come from a traced run; end-to-end figures above include tracing)")
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: every end-to-end metric, or
// with tracing every per-layer metric. A metric the workload does not
// define is reported as 0 in the per-layer set; end-to-end metrics are
// defined on every workload.
func resultLine(res *result, m map[string]float64, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultJSON{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
