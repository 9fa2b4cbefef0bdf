// Command servebench is the repository's served-traffic benchmark. It starts
// a real dimed server (internal/serve) on a loopback port inside its own
// process and drives it through the typed client (internal/client) with one
// of three seeded workloads, checks every output against in-process DIME+,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash _servebench/run.sh --workload pages-discover --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an uninstrumented
// run; with --trace 1 it runs the workload twice, untraced and traced, and
// reports the per-layer metrics plus the tracing overhead. METRICS.md says
// why each workload exists and which end-to-end metric each layer metric
// should move.
//
// Exit codes: 0 success; 1 a correctness check failed (no metrics are
// printed); 2 bad arguments; 3 the run was invalid (the load generator fell
// behind its schedule, or completions fell behind arrivals); 4 the server
// or the set-up failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dime/internal/core"
	"dime/internal/obs"
	"dime/internal/serve"
)

// setupRepeats is how often an untraced run sets up its server; setup_s is
// the median.
const setupRepeats = 3

// closedClients is the client count of the closed loop and the set-up. One
// client, not nproc: on a 2-core host, two concurrent CPU-bound jobs made
// throughput swing by a quarter between identical runs, while one repeats
// within a few percent.
const closedClients = 1

// Validity limits: past them the generator, not the server, shapes the
// numbers, and the run is refused rather than reported as slow.
const (
	maxLagP99      = time.Second // generator lateness, 99th percentile
	maxBacklogSecs = 1.0         // released-but-unstarted ops, in seconds of arrivals
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pages-discover, dbgen-batch or ingest-stream")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same inputs and schedule")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	root := fs.String("root", "..", "checkout root, for the commit stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "servebench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": newStamp(*root, *name, *seed, *seconds, *trace)})
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 4
	}
	fmt.Fprintln(stderr, string(stampLine))

	out, err := measureWorkload(w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		var ee *exitError
		if errors.As(err, &ee) {
			return ee.code
		}
		return 4
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 4
	}
	// Standard output carries numbers only for a correct, valid run: the
	// stamp, then the result as the last line.
	fmt.Fprintln(stdout, string(stampLine))
	fmt.Fprintln(stdout, string(line))
	return 0
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureWorkload runs the workload once (untraced) or twice (untraced, then
// traced) and assembles the metrics.
func measureWorkload(w *workload, seed int64, seconds float64, traced bool, stderr io.Writer) (*output, error) {
	window := time.Duration(seconds * float64(time.Second))
	conns := runtime.NumCPU()
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	base, err := measure(w, nil, window, conns, repeats, seed)
	if err != nil {
		return nil, err
	}
	base.report(stderr, "untraced")
	out := &output{Correct: true, Attempted: base.attempted, Failed: base.failed}
	if !traced {
		out.Metrics = base.endToEnd()
		return out, nil
	}
	resetOps(w)
	tr := newTracer()
	t, err := measure(w, tr, window, conns, repeats, seed)
	if err != nil {
		return nil, err
	}
	t.report(stderr, "traced")
	out.Metrics = perLayer(w, base, t, tr)
	return out, nil
}

// measurement is what one set-up plus window produced.
type measurement struct {
	setupS    []float64
	ingests   []*op // set-up ingest requests, every repeat
	window    []*op // ops the window ran
	elapsed   time.Duration
	backlog   int
	rate      float64 // open-loop arrivals per second; 0 for a closed loop
	cpu       time.Duration
	gcCPUFrac float64
	allocB    float64
	heapMB    float64
	goroutine int
	rebuilds  int64
	attempted int
	failed    int
}

// measure sets the workload up `repeats` times (keeping the last server),
// warms it up, runs the window and checks every output. A non-nil tracer
// instruments the server and collects its spans until measure returns.
func measure(w *workload, tr *tracer, window time.Duration, conns, repeats int, seed int64) (*measurement, error) {
	m := &measurement{}
	var s *server
	var r *runner
	for i := 0; i < repeats; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, &exitError{4, fmt.Errorf("stopping set-up server: %w", err)}
			}
		}
		start := time.Now()
		var ingests []*op
		var err error
		s, r, ingests, err = setup(w, tr, conns, seed)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		m.ingests = append(m.ingests, ingests...)
	}
	defer func() { _ = s.stop() }()

	if tr != nil {
		tr.startPolling()
		defer tr.stopPolling()
	}
	r.runAll(w.warmup, conns)
	for _, o := range w.warmup {
		if o.err != nil {
			return nil, &exitError{4, fmt.Errorf("warm-up discover on %s: %w", o.corpus, o.err)}
		}
	}

	runtime.GC()
	cpu0, rt0 := processCPU(), readRuntime()
	if w.jobs != nil {
		m.elapsed = r.closedLoop(w.jobs, closedClients)
		for _, job := range w.jobs {
			m.window = append(m.window, job...)
		}
	} else {
		m.backlog = r.openLoop(w.open, window, conns)
		m.elapsed = time.Since(r.origin)
		for _, o := range w.open {
			if o.due < window {
				m.window = append(m.window, o)
			}
		}
		m.rate = float64(len(m.window)) / window.Seconds()
	}
	m.cpu = processCPU() - cpu0
	rt1 := readRuntime()
	m.goroutine = runtime.NumGoroutine()
	// Two collections: the second also frees what sync.Pools kept through
	// the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if d := rt1.cpu - rt0.cpu; d > 0 {
		m.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / d
	}
	m.allocB = rt1.alloc - rt0.alloc
	m.rebuilds = r.rebuilds.Load()
	for _, o := range m.window {
		m.attempted++
		if o.err != nil {
			m.failed++
		}
	}
	if err := r.verdict(); err != nil {
		return nil, err
	}
	return m, m.valid()
}

// verdict turns recorded correctness problems into an exit-1 error.
func (r *runner) verdict() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%d correctness problem(s):", len(r.problems))
	for _, p := range r.problems {
		msg += "\n  " + p
	}
	for _, wr := range r.wrong {
		msg += "\n  " + explain(r.profiles, wr)
	}
	return &exitError{1, errors.New(msg)}
}

// explain compares a mismatching result with its reference field by field,
// as internal/difftest's exact comparison does.
func explain(profiles map[string]serve.Profile, wr wrongResult) string {
	ref, err := newExpect(profiles, wr.want.corpus, wr.want.profile, wr.want.entities, true)
	if err != nil {
		return err.Error()
	}
	got, err := wr.got.Core(ref.ref.Group)
	if err != nil {
		return err.Error()
	}
	want := ref.ref
	prefix := wr.want.corpus + "/" + wr.got.Job + ": "
	switch {
	case got.Group.Name != want.Group.Name:
		return prefix + "group differs"
	case !reflect.DeepEqual(got.Partitions, want.Partitions):
		return prefix + "partitions differ"
	case got.Pivot != want.Pivot:
		return prefix + fmt.Sprintf("pivot %d, want %d", got.Pivot, want.Pivot)
	case !reflect.DeepEqual(got.Levels, want.Levels):
		return prefix + "levels differ"
	case !reflect.DeepEqual(got.Witnesses, want.Witnesses):
		return prefix + "witnesses differ"
	case got.Stats != want.Stats:
		return prefix + fmt.Sprintf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	return prefix + "digest differs but fields agree"
}

// valid refuses a run whose numbers the load generator, not the server,
// would shape.
func (m *measurement) valid() error {
	if lag := m.lagP99(); lag > float64(maxLagP99.Milliseconds()) {
		return &exitError{3, fmt.Errorf("run invalid: generator lateness p99 %.1f ms exceeds %v", lag, maxLagP99)}
	}
	if m.rate > 0 && float64(m.backlog) > maxBacklogSecs*m.rate {
		return &exitError{3, fmt.Errorf("run invalid: %d ops released but not started when the window closed (more than %.1fs of arrivals)", m.backlog, maxBacklogSecs)}
	}
	return nil
}

func (m *measurement) lagP99() float64 {
	var lags []float64
	for _, o := range m.window {
		lags = append(lags, float64(o.start-o.due)/1e6)
	}
	return percentile(lags, 99)
}

// latencies returns the completed ops of kind k, timed from their due time,
// in ms.
func latencies(ops []*op, k kind) []float64 {
	var out []float64
	for _, o := range ops {
		if o.act.kind() == k && o.err == nil {
			out = append(out, float64(o.end-o.due)/1e6)
		}
	}
	return out
}

// ingestOps are the window's ingest requests, or the set-up's where the
// window has none.
func (m *measurement) ingestOps() []*op {
	for _, o := range m.window {
		if o.act == actIngest {
			return m.window
		}
	}
	return m.ingests
}

func (m *measurement) completed() int { return m.attempted - m.failed }

func (m *measurement) cpuMSPerOp() float64 {
	return float64(m.cpu) / 1e6 / float64(max(1, m.completed()))
}

// endToEnd is the gated metric set: the ones that repeat within about a
// tenth across seeds on a shared 2-core host.
func (m *measurement) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":             {percentile(m.setupS, 50), "s"},
		"discover_jobs_per_s": {float64(len(latencies(m.window, kindDiscover))) / m.elapsed.Seconds(), "1/s"},
		"ingest_p50_ms":       {percentile(latencies(m.ingestOps(), kindIngest), 50), "ms"},
		"cpu_ms_per_op":       {m.cpuMSPerOp(), "ms"},
	}
}

// ungated are the end-to-end figures that do not repeat within a tenth
// across seeds (latency tails; discover latency, whose corpus mix varies
// with the seed; sub-millisecond reads; the heap, which holds seed-sized
// results); they are reported with the per-layer metrics.
func (m *measurement) ungated() map[string]metric {
	disc := latencies(m.window, kindDiscover)
	ing := latencies(m.ingestOps(), kindIngest)
	reads := latencies(m.window, kindRead)
	return map[string]metric{
		"discover_p50_ms": {percentile(disc, 50), "ms"},
		"discover_p90_ms": {percentile(disc, 90), "ms"},
		"ingest_p99_ms":   {percentile(ing, 99), "ms"},
		"read_p50_ms":     {percentile(reads, 50), "ms"},
		"read_p99_ms":     {percentile(reads, 99), "ms"},
		"heap_live_mb":    {m.heapMB, "MB"},
		"error_rate":      {float64(m.failed) / float64(max(1, m.attempted)), "ratio"},
	}
}

// report prints a readable summary, with sample counts and the highest
// percentile each sample supports, to standard error.
func (m *measurement) report(w io.Writer, label string) {
	fmt.Fprintf(w, "%s: setup %.3f s, window %.2fs, %d ops (%d failed, error rate %.4f), cpu %.3f ms/op, heap %.1f MB, backlog %d, lag p99 %.2f ms\n",
		label, m.setupS, m.elapsed.Seconds(), m.attempted, m.failed,
		float64(m.failed)/float64(max(1, m.attempted)), m.cpuMSPerOp(), m.heapMB, m.backlog, m.lagP99())
	for _, c := range []struct {
		name string
		ops  []*op
		k    kind
	}{{"discover", m.window, kindDiscover}, {"ingest", m.ingestOps(), kindIngest}, {"read", m.window, kindRead}} {
		xs := latencies(c.ops, c.k)
		tail := tailPercentile(len(xs))
		fmt.Fprintf(w, "  %-8s n=%-6d p50 %.3f ms  p%g %.3f ms\n", c.name, len(xs), percentile(xs, 50), tail, percentile(xs, tail))
	}
}

// perLayer assembles the traced run's per-layer metrics. Runtime and load
// generator figures come from the untraced pass, which tracing cannot
// perturb; the overhead compares the two passes.
func perLayer(w *workload, base, t *measurement, tr *tracer) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	jobs := float64(max(1, len(tr.runsMS)))
	for _, ph := range []struct{ span, name string }{
		{obs.PhaseRecordCompile, "record_compile"}, {obs.PhaseSignatureBuild, "signature_build"},
		{obs.PhaseCandidateGen, "candidate_gen"}, {obs.PhasePositiveVerify, "positive_verify"},
		{obs.PhaseNegativeFilter, "negative_filter"}, {obs.PhaseNegativeVerify, "negative_verify"},
	} {
		put("core."+ph.name+"_ms", tr.phases[ph.span]/jobs, "ms")
	}
	var considered, verified, skipped, negVerified, filtered, nonPivot, n float64
	for _, o := range t.window {
		if o.act != actDiscover || o.err != nil {
			continue
		}
		s := o.stats
		n++
		considered += float64(s.PositivePairsConsidered)
		verified += float64(s.PositiveVerified)
		skipped += float64(s.PositiveSkippedByTransitivity)
		negVerified += float64(s.NegativeVerified)
		filtered += float64(s.PartitionsFilteredBySignature)
		if o.partitions > 0 {
			nonPivot += float64(o.partitions - 1)
		}
	}
	n = max(n, 1)
	put("core.positive_considered", considered/n, "count")
	put("core.positive_verified", verified/n, "count")
	put("core.transitivity_skip_ratio", skipped/max(considered, 1), "ratio")
	put("core.negative_verified", negVerified/n, "count")
	put("core.signature_filtered_ratio", filtered/max(nonPivot, 1), "ratio")
	put("core.session_add_us", tr.sessionAddUS(), "us")
	put("core.session_rebuilds", float64(t.rebuilds), "count")

	waits := tr.queueWaits()
	put("serve.queue_wait_ms.p50", percentile(waits, 50), "ms")
	put("serve.queue_wait_ms.p90", percentile(waits, 90), "ms")
	put("serve.job_run_ms.p50", percentile(tr.runsMS, 50), "ms")
	put("serve.job_run_ms.p90", percentile(tr.runsMS, 90), "ms")
	tr.mu.Lock()
	for _, class := range []string{"ingest", "discover", "results", "read"} {
		put("serve.handler_ms."+class+".p50", percentile(tr.handler[class], 50), "ms")
		put("serve.handler_ms."+class+".p99", percentile(tr.handler[class], 99), "ms")
	}
	var overhead []float64
	for _, o := range t.window {
		if h, ok := tr.opHandler[o.id]; ok && o.act.kind() == kindRead && o.err == nil {
			overhead = append(overhead, float64(o.clientDur)/1e6-h)
		}
	}
	tr.mu.Unlock()
	var encode []float64
	for _, e := range w.expects {
		encode = append(encode, e.encodeMS)
	}
	put("serve.encode_ms.results", percentile(encode, 50), "ms")
	put("serve.decode_ms.ingest", timeDecode(t.ingestOps()), "ms")
	put("client.overhead_ms", percentile(overhead, 50), "ms")

	put("runtime.gc_cpu_frac", base.gcCPUFrac, "ratio")
	put("runtime.alloc_mb_per_op", base.allocB/(1<<20)/float64(max(1, base.completed())), "MB/op")
	put("runtime.goroutines_end", float64(base.goroutine), "count")
	put("obs.trace_overhead_pct", 100*(t.cpuMSPerOp()/base.cpuMSPerOp()-1), "%")
	put("loadgen.lag_p99_ms", base.lagP99(), "ms")
	put("loadgen.backlog_end", float64(base.backlog), "count")
	for name, v := range base.ungated() {
		out[name] = v
	}
	return out
}

// resetOps clears the executor-filled fields so a schedule can run again.
func resetOps(w *workload) {
	reset := func(ops []*op) {
		for _, o := range ops {
			o.start, o.end, o.clientDur, o.err = 0, 0, 0, nil
			o.stats, o.partitions = core.Stats{}, 0
		}
	}
	reset(w.warmup)
	reset(w.open)
	for _, j := range w.jobs {
		reset(j)
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct{ gcCPU, cpu, alloc float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0].Value), cpu: val(s[1].Value), alloc: val(s[2].Value)}
}

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailPercentile is the highest of p99.9, p99, p90 and p50 that has at
// least ten of n samples beyond it (p50 when none has).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}
