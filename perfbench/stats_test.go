package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted the caller's slice")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestReportTail checks the tail rule: the percentile reported has at
// least ten samples beyond it, and the next higher candidate has not.
func TestReportTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		p := reportTail(c.n)
		if p != c.want {
			t.Errorf("reportTail(%d) = p%g, want p%g", c.n, p, c.want)
		}
		if p == 0 {
			continue
		}
		xs := seq(c.n)
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g = %v has only %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the method the benchmark's spread is judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1, 2}, [3]float64{1, 2, 3.5}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
}

func TestPairWin(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		gain         bool
	}{
		{"clear gain, higher better", shift(10), true, true},
		{"clear loss, higher better", shift(-10), true, false},
		{"clear gain, lower better", shift(-10), false, true},
		{"gap within parent IQR", shift(0.5), true, false},
	} {
		v, err := pairWin(parent, c.change, c.higherBetter)
		if err != nil {
			t.Fatal(err)
		}
		if v.Gain != c.gain {
			t.Errorf("%s: gain = %v, want %v (%+v)", c.name, v.Gain, c.gain, v)
		}
	}

	// Nine wins and one tie is 9/10; eight wins and two losses is not.
	change := shift(10)
	change[0] = parent[0]
	if v, _ := pairWin(parent, change, true); !v.Gain || v.Wins != 9 || v.Losses != 0 {
		t.Errorf("9 wins + 1 tie: %+v", v)
	}
	change[1] = parent[1] - 1
	if v, _ := pairWin(parent, change, true); v.Gain || v.Wins != 8 {
		t.Errorf("8 wins: %+v", v)
	}
	// Fewer than ten pairs never claim a gain.
	if v, _ := pairWin(parent[:9], shift(10)[:9], true); v.Gain {
		t.Errorf("9 pairs claimed a gain: %+v", v)
	}
	if _, err := pairWin(parent, parent[:5], true); err == nil {
		t.Error("unpaired samples accepted")
	}
}

func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	e := &env{root: dir, seed: 1, sizes: defaultSizes()}
	rec := func(cpu string, v float64) resultRecord {
		st := stamp{Workload: "w", CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go", Seed: 1, Sizes: e.sizes}
		r := newReport()
		r.Metrics["sim_minstr_per_s"] = metric{v, "Minstr/s"}
		return resultRecord{Stamp: st, Report: *r}
	}
	write := func(name string, recs ...resultRecord) string {
		e.root = filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(e, "w", r); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(e.root, ".bench_build", "results", "w-tracefalse.jsonl")
	}
	var same, other []resultRecord
	for i := 0; i < 10; i++ {
		same = append(same, rec("cpu A", 10+float64(i%3)))
		other = append(other, rec("cpu B", 20))
	}
	parent := write("parent", same...)
	var out strings.Builder
	if err := compareFiles(&out, parent, write("change", same...)); err != nil {
		t.Fatalf("same stamps refused: %v", err)
	}
	if !strings.Contains(out.String(), `"identical_simulated_output": true`) {
		t.Errorf("compare output: %s", out.String())
	}
	if err := compareFiles(&out, parent, write("other", other...)); err == nil || !strings.Contains(err.Error(), "cpu") {
		t.Errorf("different CPU models compared: %v", err)
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json's metric lists
// equal to what the program reports.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkJSON
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range layerMetrics {
		want[m[0]] = m[1]
	}
	if len(cfg.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(cfg.PerLayer), len(want))
	}
	for _, m := range cfg.PerLayer {
		if u, ok := want[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): program reports unit %q", m.Name, m.Unit, u)
		}
	}
	for _, m := range cfg.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports unit %q", m.Name, m.Unit, u)
		}
		if (m.Better == "higher") != higherBetter(m.Name) {
			t.Errorf("end-to-end %s: better %q disagrees with compare", m.Name, m.Better)
		}
	}
	if len(cfg.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(cfg.EndToEnd), len(endToEndUnits))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}
