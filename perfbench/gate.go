package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"banshee"
)

// goldenSchemes and goldenWorkloads are the scheme × workload pairs the
// gate re-runs: every scheme any benchmark workload simulates, on each
// workload testdata/golden_stats.json pins.
var (
	goldenSchemes   = []string{"Banshee", "TDC", "Alloy 1", "HMA", "Unison", "CAMEO"}
	goldenWorkloads = []string{"mcf", "mix1", "pagerank"}
)

// goldenGate re-runs the golden configuration of every pair above and
// compares each result's JSON byte for byte with the pinned one. Any
// difference fails the benchmark before it times anything.
func goldenGate(e *env, workload string) error {
	data, err := os.ReadFile(filepath.Join(e.root, "testdata", "golden_stats.json"))
	if err != nil {
		return err
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("golden_stats.json: %w", err)
	}
	cfg := banshee.DefaultConfig()
	cfg.Cores = e.sizes.GoldenCores
	cfg.InstrPerCore = e.sizes.GoldenInstr
	cfg.Seed = e.sizes.GoldenSeed
	cfg.Scheme.HMAEpochAccesses = e.sizes.GoldenHMAEpoch
	for _, s := range goldenSchemes {
		for _, w := range goldenWorkloads {
			key := s + " | " + w
			raw, ok := golden[key]
			if !ok {
				return fmt.Errorf("golden_stats.json has no %q", key)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, raw); err != nil {
				return err
			}
			res, err := banshee.Run(cfg, w, s)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want.Bytes()) {
				return fmt.Errorf("%s: statistics differ from testdata/golden_stats.json:\n got %s\nwant %s", key, got, want.Bytes())
			}
		}
	}
	return nil
}
