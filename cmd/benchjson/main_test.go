package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pooleddata
BenchmarkNoisyBatchDecode/gaussian-8         	       5	 224000000 ns/op
BenchmarkRemoteShardDecode/remote-batch64-8  	      33	  35323774 ns/op	 3100000 B/op	    2590 allocs/op
some test log line that is not a benchmark
PASS
ok  	pooleddata	12.3s
`

func TestParseBenchOutput(t *testing.T) {
	doc := document{Benchmarks: map[string]result{}}
	sc := bufio.NewScanner(strings.NewReader(sample))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var r result
		if err := parseMeasurements(m[3], &r); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		doc.Benchmarks[m[1]] = r
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	g, ok := doc.Benchmarks["BenchmarkNoisyBatchDecode/gaussian"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", doc.Benchmarks)
	}
	if g.NsPerOp != 224000000 {
		t.Fatalf("ns/op = %v, want 224000000", g.NsPerOp)
	}
	if g.AllocsPerOp != nil {
		t.Fatal("allocs reported for a benchmark without -benchmem fields")
	}
	r := doc.Benchmarks["BenchmarkRemoteShardDecode/remote-batch64"]
	if r.BytesPerOp == nil || *r.BytesPerOp != 3100000 {
		t.Fatalf("B/op = %v, want 3100000", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 2590 {
		t.Fatalf("allocs/op = %v, want 2590", r.AllocsPerOp)
	}
}

func TestRejectsEmptyInput(t *testing.T) {
	err := run(bufio.NewScanner(strings.NewReader("PASS\nok\n")), nil)
	if err == nil {
		t.Fatal("run accepted input with no benchmark lines")
	}
}

// TestKeysByPackage feeds in the output of two packages that share a
// benchmark name: each result keeps its own package, and neither
// overwrites the other.
func TestKeysByPackage(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: pooleddata
BenchmarkNoisyBatchDecode/gaussian-2   	       1	 175000000 ns/op	 9000000 B/op	    1321 allocs/op
BenchmarkShared-2                      	      10	      1000 ns/op
PASS
ok  	pooleddata	3.1s
goos: linux
goarch: amd64
pkg: pooleddata/internal/decoder
BenchmarkRefinedDecode-2               	       1	 520000000 ns/op	43000000 B/op	    3006 allocs/op
BenchmarkShared-2                      	      10	      2000 ns/op
PASS
ok  	pooleddata/internal/decoder	2.3s
`
	var buf strings.Builder
	if err := run(bufio.NewScanner(strings.NewReader(out)), &buf); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("decode %s: %v", buf.String(), err)
	}
	want := map[string]struct {
		pkg string
		ns  float64
	}{
		"pooleddata.BenchmarkNoisyBatchDecode/gaussian":      {"pooleddata", 175000000},
		"pooleddata.BenchmarkShared":                         {"pooleddata", 1000},
		"pooleddata/internal/decoder.BenchmarkRefinedDecode": {"pooleddata/internal/decoder", 520000000},
		"pooleddata/internal/decoder.BenchmarkShared":        {"pooleddata/internal/decoder", 2000},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for key, w := range want {
		r, ok := doc.Benchmarks[key]
		if !ok {
			t.Fatalf("missing %s in %+v", key, doc.Benchmarks)
		}
		if r.Pkg != w.pkg || r.NsPerOp != w.ns {
			t.Fatalf("%s: pkg %q ns/op %v, want %q %v", key, r.Pkg, r.NsPerOp, w.pkg, w.ns)
		}
	}
}
