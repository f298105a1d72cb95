// benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive benchmark
// numbers as an artifact that later tooling (regression gates, plots)
// consumes without re-parsing the human format.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH.json
//
// Each benchmark is keyed by its package and name ("pkg.Name", from the
// most recent "pkg:" header), so a run over several packages keeps
// same-named benchmarks apart. Other non-benchmark lines (PASS, ok,
// goos/goarch headers, test log output) are ignored, so the tool can sit
// at the end of any test pipeline. A run with zero benchmark lines is an
// error: it almost always means the -bench pattern matched nothing.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result holds the measurements of one benchmark. Fields beyond
// ns_per_op appear only when the benchmark ran with -benchmem or called
// b.ReportAllocs.
type result struct {
	Pkg         string   `json:"pkg,omitempty"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type document struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8  100  12345 ns/op [...]". The
// trailing -N is the GOMAXPROCS suffix, stripped from the JSON key so
// the name is stable across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parseMeasurements(rest string, r *result) error {
	fields := strings.Fields(rest)
	if len(fields)%2 != 0 {
		return fmt.Errorf("odd measurement fields %q", rest)
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("measurement %q: %v", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			val := v
			r.BytesPerOp = &val
		case "allocs/op":
			val := v
			r.AllocsPerOp = &val
		default:
			// Custom b.ReportMetric units pass through unrecognized; skip.
		}
	}
	return nil
}

func run(in *bufio.Scanner, out io.Writer) error {
	doc := document{Benchmarks: map[string]result{}}
	var pkg string
	// Allow long lines: benchmark names embed sub-benchmark paths.
	in.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return fmt.Errorf("benchjson: iterations in %q: %v", line, err)
		}
		r := result{Pkg: pkg, Iterations: iters}
		if err := parseMeasurements(m[3], &r); err != nil {
			return fmt.Errorf("benchjson: line %q: %v", line, err)
		}
		key := m[1]
		if pkg != "" {
			key = pkg + "." + key
		}
		doc.Benchmarks[key] = r
	}
	if err := in.Err(); err != nil {
		return fmt.Errorf("benchjson: read stdin: %v", err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found on stdin (did -bench match anything?)")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func main() {
	if err := run(bufio.NewScanner(os.Stdin), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
