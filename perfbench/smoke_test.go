package main

import (
	"context"
	"path/filepath"
	"testing"
)

// tinyEnv shrinks every workload so a smoke run takes about a second.
func tinyEnv(t *testing.T, trace bool) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	s := defaultSizes()
	s.SingleCores, s.SingleInstr = 2, 20_000
	s.GangCores, s.GangInstr, s.GangSeeds = 2, 10_000, 2
	s.ServiceInstr = 5_000
	s.SetupReps, s.LadderReps, s.MinUnits = 1, 1, 1
	e := &env{root: root, work: t.TempDir(), seed: 3, trace: trace, sizes: s, setupInProcess: true}
	if trace {
		e.spans = newSpanLog()
	}
	return e
}

func TestGoldenGate(t *testing.T) {
	if err := goldenGate(tinyEnv(t, false), "run-banshee-mix1"); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each reports exactly its metric list, correctly.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			e := tinyEnv(t, trace)
			r, err := run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := len(endToEndUnits)
			if trace {
				want = len(layerMetrics)
			}
			if len(r.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), want)
			}
			if !trace {
				for n, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, n, m.Value)
					}
				}
			} else if name == "run-banshee-mix1" && r.Metrics["ladder.coverage"].Value <= 0 {
				t.Errorf("%s: ladder.coverage = %v", name, r.Metrics["ladder.coverage"].Value)
			}
		}
	}
}
