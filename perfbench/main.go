// Command perfbench is kumquat's end-to-end, layer-by-layer benchmark.
//
// It runs one named workload for a fixed measuring time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones declared in
// BENCHMARK.json, measured with tracing off; with --trace 1 a separate
// traced run reports the per-layer ones. The line before it is a report
// of the environment (nproc, GOMAXPROCS, Go version, commit, seed) and of
// the sample count behind every percentile. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload text-stream --seed 1 --seconds 10 --trace 0
//
// README.md records why each workload was chosen and how each metric is
// measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed of every generated input, the request mix and synthesis")
		seconds = flag.Float64("seconds", 10, "measuring time of the run")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository checkout holding BENCHMARK.json")
		out     = flag.String("out", ".bench_build/perfbench", "directory for generated corpora and written traces")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	decl, err := loadDeclaration(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(mustMkdir(*out), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := config{
		Seed:      *seed,
		Measure:   time.Duration(*seconds * float64(time.Second)),
		Trace:     *trace == 1,
		K:         runtime.NumCPU(),
		Scale:     1,
		Dir:       dir,
		CorruptOp: -1,
	}
	res, err := run(ctx, *name, cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Trace && res.traceJSON != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := os.WriteFile(path, res.traceJSON, 0o644); err != nil {
			fatal(err)
		}
		res.meta["trace_file"] = path
	}
	res.meta["commit"] = commitOf(*root)
	line, err := res.line(decl, cfg.Trace)
	if err != nil {
		fatal(err)
	}
	meta, err := json.Marshal(map[string]any{"report": res.meta})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
