// Command elbench is the repository's end-to-end benchmark. It drives the
// public APIs of the EL-Rec system — core.Build and ps.Pipeline.Train for
// training, served.NewFromCheckpoint and serve.Ranker for serving — on
// inputs generated from a seed before any timing starts, checks the outputs,
// and prints one JSON result as the last line of standard output.
//
//	go build -o elbench . && ./elbench -root .. --workload train-onehot --seed 1 --seconds 45 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// times each layer from outside by calling its public functions, records a
// span per layer call and writes them as a Chrome trace. README.md records
// why each workload exists and which end-to-end metric each layer metric
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string
	root     string // checkout root, for the source fingerprint
	workdir  string // scratch files and traces
	commit   string
}

// report collects one run's outcome.
type report struct {
	metrics   map[string]float64
	checks    []string // output checks that passed, in order
	failure   error    // first failed output check
	attempted int64
	failed    int64
	notes     []string // extra human-readable lines
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check records an output check; a non-nil err fails the run loudly.
func (r *report) check(name string, err error) {
	if err != nil {
		if r.failure == nil {
			r.failure = fmt.Errorf("check %s failed: %w", name, err)
		}
		return
	}
	r.checks = append(r.checks, name)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts options, p params) (*report, error){
	"train-onehot": runTrain,
	"serve-rank":   runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	var opts options
	fl := flag.NewFlagSet("elbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&opts.workload, "workload", "", "workload: train-onehot or serve-rank")
	fl.Uint64Var(&opts.seed, "seed", 1, "seed every input is generated from")
	fl.Float64Var(&opts.seconds, "seconds", 45, "measurement length in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	fl.StringVar(&opts.size, "size", "full", "preset: full (the benchmark) or tiny (smoke test)")
	fl.StringVar(&opts.root, "root", ".", "checkout root, hashed into the source fingerprint")
	fl.StringVar(&opts.workdir, "workdir", ".bench_build", "directory for the serving checkpoint and Chrome traces")
	fl.StringVar(&opts.commit, "commit", "none", "commit id recorded in the host fingerprint")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[opts.workload]
	if !ok || (*trace != 0 && *trace != 1) || opts.seconds <= 0 {
		fmt.Fprintf(stderr, "elbench: need --workload (train-onehot, serve-rank), --trace 0|1 and positive --seconds\n")
		return 2
	}
	opts.trace = *trace == 1
	p, ok := presets[opts.size]
	if !ok {
		fmt.Fprintf(stderr, "elbench: unknown -size %q\n", opts.size)
		return 2
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "elbench: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "elbench workload=%s seed=%d seconds=%g trace=%d size=%s\n",
		opts.workload, opts.seed, opts.seconds, *trace, opts.size)
	fmt.Fprintf(stdout, "host %s\n", fingerprint(opts))
	rep, err := runner(opts, p)
	if err != nil {
		fmt.Fprintf(stderr, "elbench: %s: %v\n", opts.workload, err)
		return 2
	}
	return emit(rep, opts.trace, stdout, stderr)
}

// emit prints the checks, every metric with unit and direction, and the
// JSON result line. Returns the process exit code.
func emit(rep *report, trace bool, stdout, stderr io.Writer) int {
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, c := range rep.checks {
		fmt.Fprintf(stdout, "check %s ok\n", c)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.check("metric "+d.Name, fmt.Errorf("not measured (value %v)", v))
			continue
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "metric %s %.6g %s %s-is-better\n", d.Name, v, d.Unit, d.Better)
	}
	correct := rep.failure == nil
	if !correct {
		fmt.Fprintf(stderr, "elbench: %v\n", rep.failure)
		fmt.Fprintf(stdout, "FAILED %v\n", rep.failure)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "elbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// fingerprint describes the host and the code under test.
func fingerprint(opts options) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d tensor_workers=%d go=%s os=%s/%s commit=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.Workers(), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, opts.commit, sourceHash(opts.root))
}

// sourceHash hashes go.mod and every .go file outside the benchmark, so a
// result names the code it measured even in a checkout without git.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "elbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unavailable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unavailable"
		}
		rel, _ := filepath.Rel(root, f) // f lies under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// secondsOf converts a duration to float seconds.
func secondsOf(d time.Duration) float64 { return d.Seconds() }

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
