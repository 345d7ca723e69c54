package sweepd

import (
	"encoding/json"
	"testing"

	"banshee/internal/runner"
)

// FuzzSpecJSON feeds arbitrary bytes to the submitted-spec decoder.
// Spec.UnmarshalJSON and Resolve must return an error, never panic, and
// a spec that resolves yields jobs whose IDs are their content keys.
func FuzzSpecJSON(f *testing.F) {
	axes := testSpec("fuzz")
	jobs, _, err := axes.Resolve()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []Spec{axes, {Name: "fuzz", Jobs: jobs}} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name": "ci-smoke",
	 "base": {"Cores": 2, "InstrPerCore": 300000, "Seed": 11},
	 "workloads": ["pagerank", "lbm"],
	 "schemes": ["NoCache", "Alloy 1", "Banshee"]}`))
	f.Add([]byte(`{"name": "pts", "workloads": ["mcf"], "schemes": ["Banshee"],
	 "points": [{"label": "lat66", "set": {"InPkgLatScale": 0.66}}, {"label": "bad", "set": [1]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "mixed", "workloads": ["mcf"], "jobs": [{}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		// Resolve enumerates the whole cross product with no cap, so a
		// few hundred bytes of repeated axis entries can name millions
		// of jobs. That is a size limit, not a decoding property; stay
		// below it.
		n := max(len(s.Points), 1) * len(s.Workloads) * len(s.Schemes) * max(len(s.Seeds), 1)
		if n > 1<<12 {
			return
		}
		jobs, _, err := s.Resolve()
		if err != nil {
			return
		}
		if len(jobs) == 0 {
			t.Fatal("spec resolved to no jobs")
		}
		for _, j := range jobs {
			if j.ID != runner.JobKey(j.Config) {
				t.Fatalf("job %s: ID %s is not its content key", j.Coord(), j.ID)
			}
		}
	})
}
