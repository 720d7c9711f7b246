package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny preset and returns its stdout.
func runTiny(t *testing.T, workload, trace string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-size", "tiny", "-root", "..", "-workdir", t.TempDir(),
		"--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced at
// toy sizes and checks that each declared metric is printed with its unit
// and direction, that the output checks ran, and that the last line is the
// result object.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	checks := map[string][]string{
		"train-onehot": {"train_loss_finite", "train_loss_decreases"},
		"serve-rank":   {"serve_scores_match_ranker"},
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			out := runTiny(t, w, trace)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			for _, want := range []string{"nproc=", "gomaxprocs=", "tensor_workers=", "go=go", "commit=", "source_sha256="} {
				if !strings.Contains(out, want) {
					t.Errorf("%s trace %s: host fingerprint lacks %q", w, trace, want)
				}
			}
			for _, c := range checks[w] {
				if !strings.Contains(out, "check "+c+" ok\n") {
					t.Errorf("%s trace %s: check %s did not run", w, trace, c)
				}
			}
			printed := map[string]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 5 && f[0] == "metric" {
					printed[f[1]] = f[3] + " " + f[4]
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: result %+v", w, trace, res)
			}
			for _, d := range defs {
				if got, want := printed[d.Name], d.Unit+" "+d.Better+"-is-better"; got != want {
					t.Errorf("%s trace %s: metric %s printed as %q, want %q", w, trace, d.Name, got, want)
				}
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace %s: result metric %s = %+v", w, trace, d.Name, m)
				}
				if trace == "0" && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, d.Name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the tables above in
// step: the same workloads, and the same metrics with the same units and
// directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestFailedCheckFailsLoudly: a failed output check turns into
// "correct": false and a non-zero exit code.
func TestFailedCheckFailsLoudly(t *testing.T) {
	if err := sameBits([]float32{1, 2}, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sameBits([]float32{1, 2}, []float32{1, math.Nextafter32(2, 3)}); err == nil {
		t.Fatal("sameBits missed a one-ulp difference")
	}
	rep := newReport()
	if got := lossChecks(rep, []float64{0.7, 0.6, math.NaN(), 0.5}, 1, 1); !math.IsNaN(got) || rep.failure == nil {
		t.Fatalf("lossChecks accepted a NaN loss: %v %v", got, rep.failure)
	}
	rep = newReport()
	lossChecks(rep, []float64{0.5, 0.5, 0.6, 0.7}, 2, 1)
	if rep.failure == nil {
		t.Fatal("lossChecks accepted a rising loss")
	}
	rep = newReport()
	if got := lossChecks(rep, []float64{0.7, 0.6, 0.5, 0.4, 0.3}, 2, 1); math.Abs(got-0.45) > 1e-12 || rep.failure != nil {
		t.Fatalf("lossChecks reported %v, want window 1's mean 0.45 (%v)", got, rep.failure)
	}
	if got := lossChecks(rep, []float64{0.7, 0.6, 0.5}, 2, 1); !math.IsNaN(got) || rep.failure == nil {
		t.Fatalf("lossChecks accepted a run short of its loss window: %v", got)
	}
	for _, d := range endToEnd {
		rep.set(d.Name, 1)
	}
	rep.attempted = 1
	var stdout, stderr bytes.Buffer
	if code := emit(rep, false, &stdout, &stderr); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("result after a failed check: %+v, %v", res, err)
	}
	rep = newReport()
	rep.check("x", errors.New("boom"))
	rep.check("x", nil)
	if rep.failure == nil || len(rep.checks) != 1 {
		t.Fatalf("report lost a failure: %+v", rep)
	}
}

func workloadNames() []string {
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}
