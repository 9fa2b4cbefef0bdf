package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// scheduleDigest hashes everything a workload sends: the set-up corpora with
// their entities, and every scheduled op with its body and reference.
func scheduleDigest(w *workload) string {
	h := sha256.New()
	for _, c := range w.corpora {
		fmt.Fprintf(h, "corpus %s %s %d\n", c.id, c.profile, c.batch)
		for _, e := range c.entities {
			fmt.Fprintf(h, "%s %q\n", e.ID, e.Values)
		}
	}
	dump := func(ops []*op) {
		for _, o := range ops {
			fmt.Fprintf(h, "op %d %s %s %s %d %d %d %v\n", o.id, o.act, o.corpus, o.profile, o.arg, o.want, o.lane, o.due)
			if o.body != nil {
				for _, e := range o.body.Entities {
					fmt.Fprintf(h, "  %s %q\n", e.ID, e.Values)
				}
			}
			if o.expect != nil {
				fmt.Fprintf(h, "  expect %x\n", o.expect.digest)
			}
		}
	}
	dump(w.warmup)
	dump(w.open)
	for _, j := range w.jobs {
		dump(j)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			build := func(seed int64) string {
				w, err := buildWorkload(name, seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				if len(w.open)+len(w.jobs) == 0 {
					t.Fatal("empty schedule")
				}
				return scheduleDigest(w)
			}
			a, b, c := build(7), build(7), build(8)
			if a != b {
				t.Errorf("seed 7 built two different schedules")
			}
			if a == c {
				t.Errorf("seeds 7 and 8 built the same schedule")
			}
		})
	}
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func namesAndUnits(m map[string]metric) []string {
	var out []string
	for name, v := range m {
		out = append(out, name+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layer)

	m := &measurement{}
	if got := namesAndUnits(m.endToEnd()); strings.Join(got, ",") != strings.Join(e2e, ",") {
		t.Errorf("end-to-end metrics printed:\n  %v\nBENCHMARK.json:\n  %v", got, e2e)
	}
	got := namesAndUnits(perLayer(&workload{}, m, &measurement{}, newTracer()))
	if strings.Join(got, ",") != strings.Join(layer, ",") {
		t.Errorf("per-layer metrics printed:\n  %v\nBENCHMARK.json:\n  %v", got, layer)
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}

	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	// METRICS.md writes percentile families once ("serve.job_run_ms.p50/p90",
	// "serve.handler_ms.<ingest|...>"), so look for the family.
	for _, nu := range append(e2e, layer...) {
		name, _, _ := strings.Cut(nu, " ")
		for _, p := range []string{".p50", ".p90", ".p99"} {
			name = strings.TrimSuffix(name, p)
		}
		if strings.HasPrefix(name, "serve.handler_ms.") {
			name = "serve.handler_ms."
		}
		if !bytes.Contains(doc, []byte("`"+name)) {
			t.Errorf("METRICS.md does not explain %s", name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The chosen percentile leaves at least ten samples beyond it.
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{10: 1, 50: 5, 90: 9, 99: 10, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

// TestTracedRunPrintsPerLayerMetrics runs the whole command briefly and
// checks the last line carries exactly the per-layer metrics.
func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives load")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "ingest-stream", "--seed", "3", "--seconds", "1", "--trace", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
		t.Errorf("result %+v", out)
	}
	bf := readBenchmarkFile(t)
	if len(out.Metrics) != len(bf.PerLayer) {
		t.Errorf("%d metrics printed, BENCHMARK.json has %d per-layer metrics", len(out.Metrics), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		if _, ok := out.Metrics[m.Name]; !ok {
			t.Errorf("%s not printed", m.Name)
		}
	}
	if !strings.Contains(lines[0], `"gomaxprocs"`) || !strings.Contains(lines[0], `"source_sha256"`) {
		t.Errorf("first line is not the stamp: %s", lines[0])
	}
}

// TestWrongResultFailsTheRun corrupts one reference and expects the run to
// end with exit code 1 and no metrics.
func TestWrongResultFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives load")
	}
	w, err := buildWorkload("ingest-stream", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, o := range w.open {
		if o.act == actDiscover {
			o.expect.digest[0] ^= 1
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no discover in the window")
	}
	out, err := measureWorkload(w, 5, 1, false, io.Discard)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != 1 || out != nil {
		t.Fatalf("got %v, %v; want exit code 1 and no output", out, err)
	}
	if !strings.Contains(err.Error(), "differs from in-process DIME+") {
		t.Errorf("error does not name the mismatch: %v", err)
	}
}
