package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"burtree"
	"burtree/internal/workload"
)

// smokeConfig is a short, small run of one workload.
func smokeConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 0.4, trace: trace, objects: 5000, setups: 1, workdir: t.TempDir()}
}

// benchmarkFile is the subset of BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(want), len(got))
		}
		for i := range min(len(want), len(got)) {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
}

// TestSmoke runs every workload briefly at a small scale, plain and
// traced, and checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, traced)
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			line, err := resultLine(res, res.metrics(), traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := out.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, d.Name, v.Unit, d.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestGateRejectsPerturbedOracle moves one oracle position by a tiny
// amount: the gate must notice.
func TestGateRejectsPerturbedOracle(t *testing.T) {
	in := makeInputs(workload.Spec{NumObjects: 2000, Seed: 5}, 5000)
	x, err := burtree.Open(burtree.Options{Strategy: burtree.GeneralizedBottomUp, BufferPages: 8, ExpectedObjects: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.BulkInsert(in.ids, in.initial, burtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	for _, c := range in.moves {
		if err := x.Update(c.ID, c.To); err != nil {
			t.Fatal(err)
		}
	}
	want := oracle(in, in.moves)
	if err := checkIndex(x, want, in.probes); err != nil {
		t.Fatalf("gate rejects a correct index: %v", err)
	}
	want[1234].X += 1e-9
	if err := checkIndex(x, want, in.probes); err == nil {
		t.Fatal("gate accepts an index that disagrees with the oracle")
	}
}

// TestFailedRunPrintsNoResult checks that a workload error exits
// non-zero without a result line.
func TestFailedRunPrintsNoResult(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(workloads, workloadDef{"broken", func(config) (*result, error) {
		return nil, errors.New("correctness: object 7 misplaced")
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "broken", "--workdir", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("failed run exited 0")
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Fatalf("failed run printed a result:\n%s", stdout.String())
	}
}
