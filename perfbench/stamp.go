package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"banshee/internal/stats"
)

// stamp records what a result was measured on and with. Two results
// compare only when every field but the code identity (GitSHA,
// SourceSHA256) and the seed agrees.
type stamp struct {
	Workload     string  `json:"workload"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitSHA       string  `json:"git_sha"`
	SourceSHA256 string  `json:"source_sha256"`
	Seed         uint64  `json:"seed"`
	Trace        bool    `json:"trace"`
	Seconds      float64 `json:"seconds"`
	Sizes        sizes   `json:"sizes"`
}

func newStamp(e *env, workload string) stamp {
	return stamp{
		Workload: workload, CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: gitSHA(e.root), SourceSHA256: sourceDigest(e.root),
		Seed: e.seed, Trace: e.trace, Seconds: e.seconds.Seconds(), Sizes: e.sizes,
	}
}

// comparable reports why two stamps must not be compared, or "" when
// they may: same machine, toolchain, workload, mode and sizes.
func (s stamp) comparable(o stamp) string {
	switch {
	case s.Workload != o.Workload:
		return fmt.Sprintf("workload %s vs %s", s.Workload, o.Workload)
	case s.CPUModel != o.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", s.CPUModel, o.CPUModel)
	case s.NProc != o.NProc || s.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("nproc/GOMAXPROCS %d/%d vs %d/%d", s.NProc, s.GOMAXPROCS, o.NProc, o.GOMAXPROCS)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("go %s vs %s", s.GoVersion, o.GoVersion)
	case s.Trace != o.Trace || s.Seconds != o.Seconds:
		return fmt.Sprintf("mode trace=%v/%gs vs trace=%v/%gs", s.Trace, s.Seconds, o.Trace, o.Seconds)
	case s.Sizes != o.Sizes:
		return "workload sizes differ"
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitSHA is the checkout's commit, or "unknown" outside a git checkout.
func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digest is the SHA-256 of the canonical JSON of every job's
// statistics, in job order: equal digests mean identical simulated
// output.
func digest(rs []stats.Sim) string {
	data, err := json.Marshal(rs)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// resultRecord is one run as kept in .bench_build/results: the printed
// report with its stamp, sample counts and digest.
type resultRecord struct {
	Stamp   stamp          `json:"stamp"`
	Report  report         `json:"report"`
	Samples map[string]int `json:"samples"`
	Tail    float64        `json:"tail_percentile"`
	Digest  string         `json:"stats_digest"`
}

func appendRecord(e *env, workload string, rec resultRecord) error {
	dir := filepath.Join(e.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%v.jsonl", workload, e.trace)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(p string) ([]resultRecord, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var out []resultRecord
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r resultRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", p)
	}
	return out, nil
}

// higherBetter reports the metrics where a larger value is the better
// one; for every other metric (times, sizes, per-layer costs) smaller is
// better.
func higherBetter(name string) bool {
	switch name {
	case "sim_minstr_per_s", "jobs_per_s", "sim_ipc", "success_frac":
		return true
	}
	return false
}

// compareFiles pairs the i-th run of the parent with the i-th run of the
// change (run them alternately) and applies the pair-win rule to every
// metric. It refuses results whose stamps are not comparable, and
// reports whether the simulated output (stats digest) is unchanged.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) != len(change) {
		return fmt.Errorf("unpaired: %d parent runs, %d change runs", len(parent), len(change))
	}
	for i := range parent {
		if why := parent[0].Stamp.comparable(parent[i].Stamp); why != "" {
			return fmt.Errorf("refusing: parent run %d: %s", i, why)
		}
		if why := parent[0].Stamp.comparable(change[i].Stamp); why != "" {
			return fmt.Errorf("refusing: change run %d: %s", i, why)
		}
		if parent[i].Stamp.Seed != change[i].Stamp.Seed {
			return fmt.Errorf("refusing: pair %d ran seeds %d and %d", i, parent[i].Stamp.Seed, change[i].Stamp.Seed)
		}
	}
	names := make([]string, 0, len(parent[0].Report.Metrics))
	for n := range parent[0].Report.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	sameOutput := true
	for i := range parent {
		sameOutput = sameOutput && parent[i].Digest == change[i].Digest
	}
	type row struct {
		Metric string `json:"metric"`
		pairVerdict
	}
	var rows []row
	for _, n := range names {
		var p, c []float64
		for i := range parent {
			p = append(p, parent[i].Report.Metrics[n].Value)
			c = append(c, change[i].Report.Metrics[n].Value)
		}
		v, err := pairWin(p, c, higherBetter(n))
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		rows = append(rows, row{n, v})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"workload": parent[0].Stamp.Workload,
		"identical_simulated_output": sameOutput, "metrics": rows})
}
