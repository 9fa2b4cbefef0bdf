package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dime/internal/core"
	"dime/internal/obs"
	"dime/internal/serve"
)

// tracer is the traced run's instrumentation. It records spans only at the
// program's public seams, from the benchmark's own code: HTTP middleware
// installed with Server.WrapHandler (handler time per route class, discover
// arrival), the Options.BeforeJob hook (job start), and a benchmark-owned
// registry and flight recorder that collect the DIME+ and session-add spans
// the program already opens. The client side tags each request with its op
// ID so client time and handler time pair up.
type tracer struct {
	registry *obs.Registry
	flight   *obs.FlightRecorder

	mu        sync.Mutex
	arrivals  map[string]time.Time // "corpus/job" → discover request arrival
	starts    map[string]time.Time // "corpus/job" → job start on a pool worker
	handler   map[string][]float64 // route class → handler ms
	opHandler map[int64]float64    // op ID → handler ms

	seen   map[*obs.FlightTrace]bool
	phases map[string]float64 // phase → summed ms over DIME+ runs
	runsMS []float64          // DIME+ run time per job

	stop chan struct{}
	done chan struct{}
}

const opHeader = "X-Bench-Op"

type opIDKey struct{}

func newTracer() *tracer {
	return &tracer{
		registry: obs.NewRegistry(),
		// Large enough that the poller sees every run before the ring wraps.
		flight:    obs.NewFlightRecorder(obs.FlightOptions{Capacity: 1 << 15}),
		arrivals:  make(map[string]time.Time),
		starts:    make(map[string]time.Time),
		handler:   make(map[string][]float64),
		opHandler: make(map[int64]float64),
		seen:      make(map[*obs.FlightTrace]bool),
		phases:    make(map[string]float64),
	}
}

// routeClass names the route a request hits, grouped as the per-layer
// metrics report it.
func routeClass(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) < 3 || parts[0] != "v1" || parts[1] != "corpora" {
		return "other"
	}
	if len(parts) == 3 {
		if method == http.MethodGet {
			return "read"
		}
		return "admin"
	}
	switch parts[3] {
	case "entities":
		return "ingest"
	case "discover":
		return "discover"
	case "results":
		return "results"
	case "status":
		return "status"
	case "scrollbar", "witnesses", "partitions":
		return "read"
	}
	return "other"
}

// captureWriter keeps a copy of a (small) response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		class := routeClass(req.Method, req.URL.Path)
		var capture *captureWriter
		if class == "discover" {
			capture = &captureWriter{ResponseWriter: w}
			w = capture
		}
		next.ServeHTTP(w, req)
		ms := msSince(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.handler[class] = append(t.handler[class], ms)
		if id, err := strconv.ParseInt(req.Header.Get(opHeader), 10, 64); err == nil {
			t.opHandler[id] += ms
		}
		if capture != nil {
			var job serve.JobJSON
			if json.Unmarshal(capture.buf.Bytes(), &job) == nil && job.Job != "" {
				t.arrivals[job.Corpus+"/"+job.Job] = start
			}
		}
	})
}

func (t *tracer) beforeJob(corpusID, jobID string) {
	now := time.Now()
	t.mu.Lock()
	t.starts[corpusID+"/"+jobID] = now
	t.mu.Unlock()
}

// tagTransport sends the op ID from the request context as a header.
type tagTransport struct{ base http.RoundTripper }

func (tt tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(opIDKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	return tt.base.RoundTrip(req)
}

// startPolling collects DIME+ traces from the flight recorder until
// stopPolling. The ring is polled often enough that no run is overwritten
// before it is seen.
func (t *tracer) startPolling() {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				t.poll()
				return
			case <-tick.C:
				t.poll()
			}
		}
	}()
}

func (t *tracer) stopPolling() {
	close(t.stop)
	<-t.done
}

func (t *tracer) poll() {
	for _, tr := range t.flight.Snapshot() {
		if t.seen[tr] {
			continue
		}
		t.seen[tr] = true
		if tr.Name != "dime+" {
			continue
		}
		t.runsMS = append(t.runsMS, float64(tr.DurNS)/1e6)
		for _, ev := range tr.Events {
			if ev.Depth == 1 {
				t.phases[ev.Name] += float64(ev.DurNS) / 1e6
			}
		}
	}
}

// queueWaits pairs each job's start with its discover request's arrival.
func (t *tracer) queueWaits() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for key, start := range t.starts {
		if arr, ok := t.arrivals[key]; ok {
			out = append(out, float64(start.Sub(arr))/1e6)
		}
	}
	return out
}

// sessionAddUS is the mean time of one incremental Session.Add, from the
// registry histogram the program's session-add spans feed.
func (t *tracer) sessionAddUS() float64 {
	h := t.registry.Histogram("dime.phase.session-add.seconds", nil)
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count()) * 1e6
}

// timeEncode times the server's result encoding — serve.ResultFromCore plus
// indented encoding/json, as the results handler writes it — on res, median
// of three.
func timeEncode(corpus string, res *core.Result) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.ResultFromCore(corpus, "job-1", res)); err != nil {
			return 0
		}
		ts = append(ts, msSince(start))
	}
	return percentile(ts, 50)
}

// timeDecode times decoding ingest request bodies as the ingest handler
// does, median over up to 200 bodies.
func timeDecode(ops []*op) float64 {
	var ts []float64
	for _, o := range ops {
		if o.act != actIngest {
			continue
		}
		raw, err := json.Marshal(o.body)
		if err != nil {
			continue
		}
		start := time.Now()
		var req serve.IngestRequest
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			continue
		}
		ts = append(ts, msSince(start))
		if len(ts) == 200 {
			break
		}
	}
	return percentile(ts, 50)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
