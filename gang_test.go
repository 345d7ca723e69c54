// Gang-execution contract tests (DESIGN.md §12): a width-8 gang must
// produce byte-identical per-lane statistics to the same configs run
// independently, across scheme families and workload kinds; the lanes
// must share one workload substrate build instead of N; and ineligible
// configurations must be rejected up front with the reason.
package banshee_test

import (
	"encoding/json"
	"strings"
	"testing"

	"banshee"
	"banshee/internal/graph"
)

const gangWidth = 8

// gangSeeds is the per-lane seed axis: distinct seeds so every lane's
// back end (L3 hashing, scheme tie-breaks, DRAM arbitration jitter)
// diverges while the front-end stream stays shared via WorkloadSeed.
func gangSeeds() []uint64 {
	seeds := make([]uint64, gangWidth)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

func gangConfig() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 60_000
	cfg.Seed = 42
	cfg.WorkloadSeed = 42 // all lanes share this stream
	return cfg
}

// TestGangLaneIdentity is the core gang guarantee: a width-8 gang's
// per-lane stats.Sim must be byte-identical to 8 independent runs of
// the same configs, across ≥3 scheme families × 2 workload kinds (a
// parametric SPEC profile and a graph-kernel workload). The default
// WarmupFrac stays on, so each lane's warmup→measure transition is
// exercised at its own pace inside the lockstep gang.
func TestGangLaneIdentity(t *testing.T) {
	type row struct {
		scheme string
		cfg    banshee.Config
	}
	var rows []row
	for _, scheme := range []string{"NoCache", "Alloy 1", "TDC", "Unison"} {
		rows = append(rows, row{scheme, gangConfig()})
	}
	hma := gangConfig()
	hma.Cores = 4
	hma.InstrPerCore = 200_000
	rows = append(rows, row{"HMA", hma})

	for _, r := range rows {
		for _, w := range []string{"mcf", "pagerank_kernel"} {
			t.Run(r.scheme+"/"+w, func(t *testing.T) {
				g, err := banshee.NewGangSession(r.cfg, w, r.scheme, gangSeeds())
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.Run(t.Context())
				if err != nil {
					t.Fatal(err)
				}
				for i, seed := range gangSeeds() {
					cfg := r.cfg
					cfg.Seed = seed
					want, err := banshee.Run(cfg, w, r.scheme)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Errorf("lane %d (seed %d) diverged from independent run\n gang: %+v\n solo: %+v",
							i, seed, got[i], want)
						continue
					}
					// The comparable-struct equality above implies JSON
					// equality; pin the byte-identity claim explicitly
					// anyway, since the batch sink stores JSON.
					gj, _ := json.Marshal(got[i])
					wj, _ := json.Marshal(want)
					if string(gj) != string(wj) {
						t.Errorf("lane %d JSON differs:\n gang: %s\n solo: %s", i, gj, wj)
					}
				}
			})
		}
	}
}

// TestGangSharedSubstrateBuild: the lanes of a gang share one workload
// source, so a graph-kernel gang builds its graph substrate exactly
// once — not once per lane. The workload seed is unique to this test
// so the substrate cache cannot serve a graph built elsewhere.
func TestGangSharedSubstrateBuild(t *testing.T) {
	cfg := gangConfig()
	cfg.WorkloadSeed = 0x6a6e9137 // unique stream → guaranteed cache miss
	before := graph.Builds()
	g, err := banshee.NewGangSession(cfg, "pagerank_kernel", "Alloy 1", gangSeeds())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if built := graph.Builds() - before; built != 1 {
		t.Fatalf("width-%d gang built the graph substrate %d times, want 1", g.Width(), built)
	}
}

// TestGangRejectsIneligible: configurations the lockstep replay cannot
// honor must fail at construction with the disqualifying reason, not
// silently diverge.
func TestGangRejectsIneligible(t *testing.T) {
	// Banshee rewrites PTEs and issues TLB shootdowns through the VM
	// substrate the lanes would have to share.
	if _, err := banshee.NewGangSession(gangConfig(), "mcf", "Banshee", gangSeeds()); err == nil ||
		!strings.Contains(err.Error(), "gang-safe") {
		t.Fatalf("Banshee gang: got %v, want a not-gang-safe error", err)
	}
	// Prefetch issue decisions depend on per-lane core clocks.
	cfg := gangConfig()
	cfg.PrefetchDegree = 2
	if _, err := banshee.NewGangSession(cfg, "mcf", "Alloy 1", gangSeeds()); err == nil ||
		!strings.Contains(err.Error(), "Prefetch") {
		t.Fatalf("prefetch gang: got %v, want a prefetch-ineligibility error", err)
	}
}
