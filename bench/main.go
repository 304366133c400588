// Command bench is the repository benchmark: it spawns real merakid
// processes, drives them over real TCP from one load-generator process,
// checks every result against an in-process control store, and reports
// end-to-end metrics (untraced run) and per-layer metrics (traced run).
// See README.md in this directory and BENCHMARK.json at the repo root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs from its surroundings.
type env struct {
	root    string // checkout root (the directory holding go.mod)
	merakid string // freshly built daemon binary
	tmp     string // scratch directory for -wal-dirs, removed at exit
	out     string // bench/out: logs, metrics.json, trace-*.json
	self    string // this binary, for the re-exec'd study child

	seed    uint64
	seconds float64 // timed work per run
	quick   bool    // ~2 % of the work, for the smoke test
	agents  int     // load-generator connections = min(nproc, 4)
}

// size scales a work size down for -quick, never below floor.
func (e *env) size(n, floor int) int {
	if e.quick {
		n /= 50
	}
	return max(n, floor)
}

// logPath names a child's log under bench/out.
func (e *env) logPath(name string) string {
	return filepath.Join(e.out, name+".log")
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// run measures the end-to-end metrics over rounds of real processes;
	// with traced set it runs one round and adds the per-layer ledger
	// and the span replica instead.
	run func(e *env, traced bool) (*result, error)
}

// measure runs the workload and adds the bench's own CPU time to what
// it measured: a driver that burns a whole core competes with what it
// measures on a small box, so its CPU is reported beside the rest.
func (w workload) measure(e *env, traced bool) (*result, error) {
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	res, err := w.run(e, traced)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.metrics["driver.cpu_s"] = cpu1 - cpu0
	return res, nil
}

var workloads = []workload{
	{"harvest-drain", runHarvestDrain},
	{"paced-ops", runPacedOps},
	{"cluster-ops", runClusterOps},
	{"study", runStudyWorkload},
}

// result is one run of one workload.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// digest identifies what the run rendered, for workloads whose
	// output must not depend on tracing (the study); "" otherwise.
	digest string
}

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json: the bench reads its own metric
// lists from it, so the file and the program cannot disagree.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module wlanscale\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the wlanscale module")
		}
		dir = parent
	}
}

// newEnv builds merakid from the checkout's source and prepares the
// scratch and output directories.
func newEnv(seed uint64, seconds float64, quick bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, seed: seed, seconds: seconds, quick: quick,
		merakid: filepath.Join(root, ".bench_build", "bin", "merakid"),
		out:     filepath.Join(root, "bench", "out"),
		agents:  min(runtime.NumCPU(), 4),
	}
	if e.self, err = os.Executable(); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", e.merakid, "./cmd/merakid")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/merakid: %v\n%s", err, out)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	// Children append to their logs; start each run with empty ones.
	if logs, err := filepath.Glob(filepath.Join(e.out, "*.log")); err == nil {
		for _, l := range logs {
			os.Remove(l)
		}
	}
	e.tmp = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	killAllChildren()
	os.RemoveAll(e.tmp)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: the whole suite, untraced then traced)")
		seed    = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 10, "seconds of timed work per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick   = flag.Bool("quick", false, "run at ~2 % size (smoke test; the numbers mean nothing)")
		repeat  = flag.Int("repeat", 1, "suite mode: how many complete sets of runs to make")
		check   = flag.Bool("check", false, "suite mode: fail if two sets differ on an end-to-end metric by more than its bound")
		child   = flag.String("study-child", "", "internal: run the study described by this JSON and print its measurements")
	)
	flag.Parse()
	if *child != "" {
		return studyChildMain(*child)
	}

	// The driver allows a run 180 s; give up before that, reaping every
	// child, rather than be killed with merakids still running. A suite
	// set is eight runs.
	limit := 170 * time.Second
	if *name == "" {
		limit *= time.Duration(8 * max(*repeat, 1))
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog timeout")
		killAllChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	e, err := newEnv(*seed, *seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name == "" {
		if err := runSuite(e, bf, *repeat, *check); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		res, err := w.measure(e, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		defs := bf.EndToEnd
		if *trace != 0 {
			defs = bf.PerLayer
		}
		if err := emit(defs, res, *trace != 0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	return 2
}

// emit prints every declared metric by name with its unit, then — as
// the last line of standard output — the one JSON object the driver
// reads. Whatever else the run observed goes to standard error.
func emit(defs []metricDef, res *result, traced bool) error {
	vals, err := pick(defs, res.metrics, traced)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		out.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	printMetrics(defs, vals)
	fmt.Printf("failed_share = %d / %d\n", res.failed, res.attempted)
	for _, name := range sortedNames(res.metrics) {
		if _, declared := vals[name]; !declared {
			fmt.Fprintf(os.Stderr, "also observed: %-44s %14.4f\n", name, res.metrics[name])
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// sortedNames returns m's keys in order, for stable printing.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
