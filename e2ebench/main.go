// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public APIs of internal/server,
// internal/heap and internal/core, checks every output, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	go run . --workload churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the run traces the middle half of its time and leaves the first and
// last quarters untraced, and the result holds the per-layer metrics,
// the mean self time of each span, and the tracing overhead (the traced
// half against the untraced quarters, whose placement cancels a steady
// drift of the host's speed). Spans are written as JSON lines under .bench_build/spans. See
// README.md for the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// params sizes a run. main uses fullParams; the tests shrink them.
type params struct {
	seed     int64
	duration time.Duration
	warmup   time.Duration
	trace    bool
	spans    string // span output path; empty writes none

	sessions int // standing server sessions
	clients  int // closed-loop clients of serve and churn
	setups   int // set-ups per run, the median is setup_s
	samples  int // churn: lifecycles sampled at quiescence when traced
	probe    int // scheme: evaluations per kind on the standalone machine

	gc gcHeapParams
}

// fullParams drives serve and churn from one client. With two, a serve
// request on the single executor also waited behind the other client's
// request, and churn's two lifecycles contended for the one GC worker;
// on a shared 2-CPU host their runs spread past the metrics' bounds.
func fullParams(seed int64, seconds int, trace bool) params {
	return params{
		seed:     seed,
		duration: time.Duration(seconds) * time.Second,
		warmup:   500 * time.Millisecond,
		trace:    trace,
		sessions: 2000,
		clients:  1,
		setups:   9,
		samples:  20,
		probe:    200,
		gc:       defaultGCHeapParams(),
	}
}

// outcome is what a workload hands back: its operation counts, its
// metrics, and the workload-specific report printed before the result.
type outcome struct {
	attempted, failed int
	metrics           values
	report            map[string]any
}

type workload func(p params, host *hostRecord) (*outcome, error)

var workloads = map[string]workload{
	"serve":   runServe,
	"churn":   runChurn,
	"gc-heap": runGCHeap,
}

// benchmarked are the workloads BENCHMARK.json lists, the ones a change
// is measured on. serve runs the same way but is left out: its figures
// follow the interpreter's single-thread speed, which on a shared 2-CPU
// host drifted by up to a quarter between quartiles of ten runs of the
// same code, as far as the metrics' bounds (see README.md).
var benchmarked = []string{"churn", "gc-heap"}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	p := fullParams(*seed, *seconds, *trace == 1)
	if p.trace {
		p.spans = spanPath(*name, *seed)
	}
	host := newHostRecord(*name, *seed, *seconds, p.trace)
	out, err := run(p, &host)
	printJSON(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		printJSON(map[string]any{"correct": false, "attempted": 0, "failed": 0, "metrics": map[string]any{}})
		os.Exit(1)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	m, err := out.metrics.render(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	out.report["error_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	printJSON(map[string]any{"report": out.report})
	printJSON(map[string]any{"correct": true, "attempted": out.attempted, "failed": out.failed, "metrics": m})
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
