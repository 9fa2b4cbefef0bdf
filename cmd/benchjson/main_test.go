package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const sample = `goos: linux
goarch: amd64
pkg: dime
cpu: some cpu
BenchmarkDIMEPlus/nil-probe-8         	      30	  40262448 ns/op	        57023 verifications/op	12525553 B/op	   58037 allocs/op
BenchmarkDIMEPlus/traced-8            	      28	  41000000 ns/op	        57023 verifications/op	12700000 B/op	   58300 allocs/op
BenchmarkExp1Fig6-8                   	       1	9000000000 ns/op	400000000 B/op	 5000000 allocs/op
some interleaved log line
PASS
ok  	dime	62.102s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample), testHost)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkDIMEPlus/nil-probe",
		"BenchmarkDIMEPlus/traced",
		"BenchmarkExp1Fig6",
	}
	if got := doc.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	r := doc.Benchmarks["BenchmarkDIMEPlus/nil-probe"]
	if r.Iterations != 30 {
		t.Errorf("iterations = %d", r.Iterations)
	}
	if math.Abs(r.NsPerOp-40262448) > 0.5 {
		t.Errorf("ns/op = %g", r.NsPerOp)
	}
	if math.Abs(r.BPerOp-12525553) > 0.5 || math.Abs(r.AllocsPerOp-58037) > 0.5 {
		t.Errorf("mem = %g / %g", r.BPerOp, r.AllocsPerOp)
	}
	if math.Abs(r.Metrics["verifications/op"]-57023) > 0.5 {
		t.Errorf("metrics = %v", r.Metrics)
	}
}

func TestParseKeepsLaterDuplicate(t *testing.T) {
	in := "BenchmarkX-4 10 100 ns/op\nBenchmarkX-4 20 90 ns/op\n"
	doc, err := parse(strings.NewReader(in), testHost)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Benchmarks["BenchmarkX"]
	if r.Iterations != 20 || math.Abs(r.NsPerOp-90) > 0.5 {
		t.Fatalf("duplicate handling: %+v", r)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	in := "BenchmarkBad notanumber 5 ns/op\nBenchmarkAlso-2 3 nan... ns/op extra\nBenchmarkOK-2 3 5 ns/op\n"
	doc, err := parse(strings.NewReader(in), testHost)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Names(); !reflect.DeepEqual(got, []string{"BenchmarkOK"}) {
		t.Fatalf("names = %v", got)
	}
}

func TestDiffDeltasAndGate(t *testing.T) {
	prev := &Document{Benchmarks: map[string]Result{
		"BenchmarkDIMEPlus/nil-probe":    {NsPerOp: 40e6, AllocsPerOp: 58000},
		"BenchmarkDIMEPlus/traced":       {NsPerOp: 41e6, AllocsPerOp: 58300},
		"BenchmarkDIMEPlusParallel/fast": {NsPerOp: 20e6, AllocsPerOp: 100000},
		"BenchmarkGone":                  {NsPerOp: 1, AllocsPerOp: 1},
	}}
	cur := &Document{Benchmarks: map[string]Result{
		"BenchmarkDIMEPlus/nil-probe":    {NsPerOp: 27e6, AllocsPerOp: 14835},
		"BenchmarkDIMEPlus/traced":       {NsPerOp: 28e6, AllocsPerOp: 80000}, // +37%
		"BenchmarkDIMEPlusParallel/fast": {NsPerOp: 20e6, AllocsPerOp: 999999},
		"BenchmarkNew":                   {NsPerOp: 5, AllocsPerOp: 5},
	}}

	var out strings.Builder
	regressions := diff(cur, prev, "BenchmarkDIMEPlus", 25, &out)

	// Deltas print for benchmarks present in both snapshots only.
	text := out.String()
	if !strings.Contains(text, "BenchmarkDIMEPlus/nil-probe: ns/op 40000000 -> 27000000 (-32.5%), allocs/op 58000 -> 14835 (-74.4%)") {
		t.Errorf("improvement delta missing:\n%s", text)
	}
	if strings.Contains(text, "BenchmarkGone") || strings.Contains(text, "BenchmarkNew") {
		t.Errorf("unmatched benchmarks should not diff:\n%s", text)
	}

	// Only the gated sub-benchmark over budget regresses; the parallel
	// benchmark's blowup is outside the gate prefix.
	if len(regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly the traced one", regressions)
	}
	if !strings.Contains(regressions[0], "BenchmarkDIMEPlus/traced") || !strings.Contains(regressions[0], "37.2%") {
		t.Errorf("regression message: %s", regressions[0])
	}

	// Within budget: no regression.
	cur.Benchmarks["BenchmarkDIMEPlus/traced"] = Result{NsPerOp: 28e6, AllocsPerOp: 60000} // +2.9%
	if got := diff(cur, prev, "BenchmarkDIMEPlus", 25, &strings.Builder{}); len(got) != 0 {
		t.Errorf("within-budget growth flagged: %v", got)
	}

	// No gate, no regressions regardless of growth.
	cur.Benchmarks["BenchmarkDIMEPlus/traced"] = Result{NsPerOp: 28e6, AllocsPerOp: 999999}
	if got := diff(cur, prev, "", 25, &strings.Builder{}); len(got) != 0 {
		t.Errorf("ungated diff flagged regressions: %v", got)
	}
}

// testHost is the host stamp the tests run benchjson with.
var testHost = Stamp{GOMAXPROCS: 4, NProc: 4, CPUModel: "host cpu", GoVersion: "go1.0"}

// runBenchjson invokes run() with a fixed clock and host, returning stderr
// and exit.
func runBenchjson(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr, time.Unix(1754600000, 0), testHost)
	return stderr.String(), code
}

// TestParseStamp: the benchmark output's cpu line and -N suffix override
// the host's CPU model and GOMAXPROCS; the CPU count and Go version come
// from the host.
func TestParseStamp(t *testing.T) {
	doc, err := parse(strings.NewReader(sample), testHost)
	if err != nil {
		t.Fatal(err)
	}
	want := Stamp{GOMAXPROCS: 8, NProc: 4, CPUModel: "some cpu", GoVersion: "go1.0"}
	if doc.Stamp == nil || *doc.Stamp != want {
		t.Fatalf("stamp = %+v, want %+v", doc.Stamp, want)
	}
	// go test omits the suffix at GOMAXPROCS 1.
	one, err := parse(strings.NewReader("BenchmarkX  10  5 ns/op\n"), testHost)
	if err != nil {
		t.Fatal(err)
	}
	want = Stamp{GOMAXPROCS: 1, NProc: 4, CPUModel: "host cpu", GoVersion: "go1.0"}
	if *one.Stamp != want {
		t.Fatalf("unsuffixed stamp = %+v, want %+v", one.Stamp, want)
	}
}

// TestTrendComparesSameStamp: entries from another host never enter the
// median, so a slower machine's history cannot hide a regression and a
// faster one's cannot fake one.
func TestTrendComparesSameStamp(t *testing.T) {
	here, there := &Stamp{GOMAXPROCS: 2, NProc: 2, CPUModel: "a", GoVersion: "go1"}, &Stamp{GOMAXPROCS: 8, NProc: 8, CPUModel: "b", GoVersion: "go1"}
	entry := func(st *Stamp, ns float64) historyEntry {
		return historyEntry{Stamp: st, Benchmarks: map[string]Result{"B": {NsPerOp: ns, AllocsPerOp: 10}}}
	}
	// The fast host's runs would flag the newest run; the same host's
	// runs are as slow.
	entries := []historyEntry{entry(there, 10e6), entry(here, 40e6), entry(there, 10e6), entry(here, 41e6), entry(here, 42e6)}
	var out strings.Builder
	if got := trendCheck(entries, "B", 5, 15, 25, &out); len(got) != 0 {
		t.Errorf("cross-host trend flagged: %v", got)
	}
	if !strings.Contains(out.String(), "skipping 2 entries stamped with another host") {
		t.Errorf("missing cross-host note:\n%s", out.String())
	}
	// A slow host's runs would hide a regression the same host's show.
	entries = []historyEntry{entry(there, 90e6), entry(here, 10e6), entry(there, 90e6), entry(here, 10e6), entry(here, 20e6)}
	if got := trendCheck(entries, "B", 5, 15, 25, &strings.Builder{}); len(got) != 1 {
		t.Errorf("same-host regression = %v", got)
	}
	// An unstamped entry matches only unstamped ones.
	if sameStamp(nil, here) || !sameStamp(nil, nil) || !sameStamp(here, &Stamp{GOMAXPROCS: 2, NProc: 2, CPUModel: "a", GoVersion: "go1"}) {
		t.Error("sameStamp mismatch")
	}
}

func TestHistoryAppend(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "history.jsonl")
	for i := 0; i < 2; i++ {
		stderr, code := runBenchjson(t, sample, "-o", filepath.Join(dir, "out.json"), "-history", hist)
		if code != 0 {
			t.Fatalf("run %d: exit %d, stderr %q", i, code, stderr)
		}
	}
	entries, err := readHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("history has %d entries, want 2", len(entries))
	}
	for i, e := range entries {
		if e.UnixTS != 1754600000 {
			t.Errorf("entry %d unix_ts = %d", i, e.UnixTS)
		}
		if e.Stamp == nil || e.Stamp.CPUModel != "some cpu" || e.Stamp.GOMAXPROCS != 8 {
			t.Errorf("entry %d stamp = %+v", i, e.Stamp)
		}
		if r := e.Benchmarks["BenchmarkDIMEPlus/nil-probe"]; math.Abs(r.NsPerOp-40262448) > 0.5 {
			t.Errorf("entry %d ns/op = %g", i, r.NsPerOp)
		}
	}
}

func TestReadHistoryRejectsCorruption(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(hist, []byte("{\"unix_ts\":1,\"benchmarks\":{}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readHistory(hist); err == nil {
		t.Fatal("corrupt history line should error")
	}
}

// histEntries builds a history where BenchmarkDIMEPlus/nil-probe holds
// steady and the final entry takes the given ns/op and allocs/op.
func histEntries(finalNs, finalAllocs float64) []historyEntry {
	entries := make([]historyEntry, 0, 5)
	for i := 0; i < 4; i++ {
		entries = append(entries, historyEntry{
			UnixTS: int64(i),
			Benchmarks: map[string]Result{
				"BenchmarkDIMEPlus/nil-probe": {NsPerOp: 30e6 + float64(i)*1e5, AllocsPerOp: 14800},
				"BenchmarkUngated":            {NsPerOp: 1e6, AllocsPerOp: 10},
			},
		})
	}
	entries = append(entries, historyEntry{
		UnixTS: 4,
		Benchmarks: map[string]Result{
			"BenchmarkDIMEPlus/nil-probe": {NsPerOp: finalNs, AllocsPerOp: finalAllocs},
			"BenchmarkUngated":            {NsPerOp: 99e6, AllocsPerOp: 999999},
			"BenchmarkDIMEPlus/new":       {NsPerOp: 1e6, AllocsPerOp: 5},
		},
	})
	return entries
}

func TestTrendCheck(t *testing.T) {
	// Steady state: within budget, no regressions; the ungated blowup and
	// the sample-starved new benchmark are both ignored.
	var out strings.Builder
	if got := trendCheck(histEntries(31e6, 14900), "BenchmarkDIMEPlus", 5, 15, 25, &out); len(got) != 0 {
		t.Errorf("steady trend flagged: %v", got)
	}
	if !strings.Contains(out.String(), "BenchmarkDIMEPlus/new: only 0 prior sample(s), skipping") {
		t.Errorf("missing skip note:\n%s", out.String())
	}
	if strings.Contains(out.String(), "BenchmarkUngated") {
		t.Errorf("ungated benchmark analyzed:\n%s", out.String())
	}

	// ns/op 50% over the ~30.15e6 median regresses.
	got := trendCheck(histEntries(45e6, 14900), "BenchmarkDIMEPlus", 5, 15, 25, &strings.Builder{})
	if len(got) != 1 || !strings.Contains(got[0], "ns/op grew") {
		t.Errorf("ns/op trend regression = %v", got)
	}

	// allocs/op 100% over the median regresses even with flat ns/op.
	got = trendCheck(histEntries(30e6, 29600), "BenchmarkDIMEPlus", 5, 15, 25, &strings.Builder{})
	if len(got) != 1 || !strings.Contains(got[0], "allocs/op grew") {
		t.Errorf("allocs trend regression = %v", got)
	}

	// A single entry has nothing to compare against.
	if got := trendCheck(histEntries(30e6, 14800)[:1], "BenchmarkDIMEPlus", 5, 15, 25, &strings.Builder{}); got != nil {
		t.Errorf("single-entry trend = %v", got)
	}
}

func TestTrendWindowLimitsMedian(t *testing.T) {
	// Ancient fast entries outside the window must not drag the median
	// down: with window 2 only the two slow recent entries count.
	entries := []historyEntry{
		{Benchmarks: map[string]Result{"B": {NsPerOp: 1e6, AllocsPerOp: 10}}},
		{Benchmarks: map[string]Result{"B": {NsPerOp: 1e6, AllocsPerOp: 10}}},
		{Benchmarks: map[string]Result{"B": {NsPerOp: 40e6, AllocsPerOp: 10}}},
		{Benchmarks: map[string]Result{"B": {NsPerOp: 41e6, AllocsPerOp: 10}}},
		{Benchmarks: map[string]Result{"B": {NsPerOp: 42e6, AllocsPerOp: 10}}},
	}
	if got := trendCheck(entries, "B", 2, 15, 25, &strings.Builder{}); len(got) != 0 {
		t.Errorf("windowed trend flagged: %v", got)
	}
}

func TestTrendCLIExitCodes(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "history.jsonl")
	var lines []byte
	for _, e := range histEntries(45e6, 14900) {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	if err := os.WriteFile(hist, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code := runBenchjson(t, "", "-trend", "-history", hist, "-gate", "BenchmarkDIMEPlus")
	if code != 2 || !strings.Contains(stderr, "TREND REGRESSION") {
		t.Errorf("regressing trend: exit %d, stderr %q", code, stderr)
	}
	if stderr, code := runBenchjson(t, "", "-trend"); code != 1 || !strings.Contains(stderr, "-trend needs -history") {
		t.Errorf("trend without history: exit %d, stderr %q", code, stderr)
	}
	if _, code := runBenchjson(t, "", "-trend", "-history", filepath.Join(dir, "missing.jsonl")); code != 1 {
		t.Errorf("missing history: exit %d", code)
	}
}

func TestOverheadCheck(t *testing.T) {
	doc := &Document{Benchmarks: map[string]Result{
		"BenchmarkDIMEPlus/nil-probe":       {NsPerOp: 30e6},
		"BenchmarkDIMEPlus/flight-recorder": {NsPerOp: 31e6}, // +3.3%
	}}
	msg, err := overheadCheck(doc, "BenchmarkDIMEPlus/nil-probe", "BenchmarkDIMEPlus/flight-recorder", 5, &strings.Builder{})
	if err != nil || msg != "" {
		t.Errorf("within budget: msg %q, err %v", msg, err)
	}
	doc.Benchmarks["BenchmarkDIMEPlus/flight-recorder"] = Result{NsPerOp: 33e6} // +10%
	msg, err = overheadCheck(doc, "BenchmarkDIMEPlus/nil-probe", "BenchmarkDIMEPlus/flight-recorder", 5, &strings.Builder{})
	if err != nil || !strings.Contains(msg, "10.0% slower") {
		t.Errorf("over budget: msg %q, err %v", msg, err)
	}
	if _, err := overheadCheck(doc, "BenchmarkMissing", "BenchmarkDIMEPlus/flight-recorder", 5, &strings.Builder{}); err == nil {
		t.Error("missing base should error")
	}
	if _, err := overheadCheck(doc, "BenchmarkDIMEPlus/nil-probe", "BenchmarkMissing", 5, &strings.Builder{}); err == nil {
		t.Error("missing probe should error")
	}
}

func TestOverheadCLIExitCode(t *testing.T) {
	in := "BenchmarkDIMEPlus/nil-probe-8 10 30000000 ns/op\n" +
		"BenchmarkDIMEPlus/flight-recorder-8 10 34000000 ns/op\n"
	out := filepath.Join(t.TempDir(), "out.json")
	stderr, code := runBenchjson(t, in, "-o", out,
		"-overhead-base", "BenchmarkDIMEPlus/nil-probe",
		"-overhead-probe", "BenchmarkDIMEPlus/flight-recorder")
	if code != 2 || !strings.Contains(stderr, "OVERHEAD REGRESSION") {
		t.Errorf("exit %d, stderr %q", code, stderr)
	}
	// The snapshot still gets written before the gate fails.
	if _, err := os.Stat(out); err != nil {
		t.Errorf("snapshot not written: %v", err)
	}
	if stderr, code := runBenchjson(t, in, "-overhead-base", "BenchmarkDIMEPlus/nil-probe"); code != 1 ||
		!strings.Contains(stderr, "go together") {
		t.Errorf("half-specified overhead pair: exit %d, stderr %q", code, stderr)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestJSONShape(t *testing.T) {
	doc, err := parse(strings.NewReader(sample), testHost)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), doc.Names()) {
		t.Fatalf("round trip lost benchmarks: %v vs %v", back.Names(), doc.Names())
	}

	// An allocation-free benchmark keeps its explicit zeros.
	zero, err := parse(strings.NewReader("BenchmarkEditPredicate/ge-0.9/typo-2  1000  250.0 ns/op  0 B/op  0 allocs/op\n"), testHost)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"allocs_per_op":0`) || !strings.Contains(string(data), `"b_per_op":0`) {
		t.Fatalf("zero B/op and allocs/op dropped: %s", data)
	}
}
