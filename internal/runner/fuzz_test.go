package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseRecords feeds arbitrary bytes to the CRC-suffixed checkpoint
// JSONL decoder. It must return an error, never panic, and every stream
// it accepts must survive a round trip through Sink.Append: the
// records written back out parse to the same records.
func FuzzParseRecords(f *testing.F) {
	jobs, err := testMatrix("fuzz").Jobs()
	if err != nil {
		f.Fatal(err)
	}
	res, err := SimulateJob(context.Background(), jobs[0])
	if err != nil {
		f.Fatal(err)
	}
	recs := make([]Record, len(jobs))
	for i, j := range jobs {
		recs[i] = Record{ID: j.ID, Matrix: j.Matrix, Label: j.Label,
			Workload: j.Workload, Scheme: j.Scheme, Seed: j.Seed}
	}
	recs[0].Result = res
	path := filepath.Join(f.TempDir(), "r.jsonl")
	valid := appendRecords(f, path, recs)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add(valid[:len(valid)-1]) // torn trailing line
	first := valid[:bytes.IndexByte(valid, '\n')+1]
	f.Add(first)
	for _, off := range []int{2, len(first) / 2, len(first) - 4} {
		mut := bytes.Clone(first)
		mut[off] ^= 1
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseRecords(data)
		if err != nil {
			return
		}
		again, err := ParseRecords(appendRecords(t, path, recs))
		if err != nil {
			t.Fatalf("records written by Sink.Append do not parse: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// appendRecords writes recs to a fresh sink at path and returns the
// file's bytes.
func appendRecords(tb testing.TB, path string, recs []Record) []byte {
	tb.Helper()
	sink, err := OpenSink(path, false)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := sink.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
