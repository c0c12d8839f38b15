// Command perfbench is ppcsim's benchmark. It runs one of three
// workloads for a fixed number of host seconds, checks every output it
// produced against values it computes apart from the code under test,
// and prints one JSON line with the operations attempted and failed and
// either the end-to-end metrics (-trace 0) or the per-layer metrics of a
// traced run (-trace 1). See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what one invocation hands a workload: its inputs come from
// seed alone, and scratch files go under workdir.
type env struct {
	seed    int64
	seconds float64
	workdir string
	log     io.Writer
}

// A workload builds its inputs in setup and then runs whole rounds of
// the same operations; inst carries everything between the two.
type workload struct {
	name  string
	setup func(e *env) (inst, error)
	// tracedRounds is the fixed work of one traced pass, so per-layer
	// totals compare across runs however long a run is.
	tracedRounds int
}

// inst is one set-up workload.
type inst interface {
	// round runs round r, appending one op per operation to p. A nil
	// tracer runs the program exactly as a user would.
	round(r int, p *pass, t *tracer) error
	// fresh drops state earlier rounds left in the program (result
	// caches), so a second pass over the same rounds is as cold as the
	// first.
	fresh(t *tracer) error
	// check verifies every op of p against independently computed
	// expectations and returns a digest of the outputs.
	check(p *pass) (string, error)
	close()
}

var workloads = []workload{
	{name: "paper-grid", setup: setupGrid, tracedRounds: 1},
	{name: "stream-rw", setup: setupStream, tracedRounds: 1},
	{name: "serve-mix", setup: setupMix, tracedRounds: 4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds one run measures")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for trace stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, workdir: *workdir, log: stderr}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, e)
	} else {
		res, err = runTimed(w, e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		var cf *checkFailure
		if errors.As(err, &cf) {
			res.Correct = false
			writeResult(stdout, res)
		}
		return 1
	}
	writeResult(stdout, res)
	return 0
}

func writeResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only float and string fields; unreachable
	}
	fmt.Fprintln(w, string(b))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// checkFailure marks an output that failed a correctness check, as
// opposed to a benchmark that could not run at all.
type checkFailure struct{ msg string }

func (c *checkFailure) Error() string { return "check failed: " + c.msg }

func failf(format string, args ...any) error {
	return &checkFailure{msg: fmt.Sprintf(format, args...)}
}
