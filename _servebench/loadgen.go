package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dime/internal/client"
	"dime/internal/obs"
	"dime/internal/serve"
)

// opTimeout bounds one operation; a discover includes its queue wait.
const opTimeout = 60 * time.Second

// executor releases open-loop ops into lanes and hands them to a fixed set of
// request goroutines. Ops of one lane run in release order, one at a time
// (a corpus's ingests, polls and discovers must reach the server in schedule
// order); unordered ops each get a lane of their own.
type executor struct {
	mu       sync.Mutex
	cond     *sync.Cond
	lanes    map[int]*lane
	ready    []*lane
	closed   bool
	released int
	started  int
}

type lane struct {
	pending []*op
	busy    bool
	queued  bool
}

func newExecutor() *executor {
	ex := &executor{lanes: make(map[int]*lane)}
	ex.cond = sync.NewCond(&ex.mu)
	return ex
}

func (ex *executor) release(o *op) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	l := &lane{}
	if o.lane >= 0 {
		if ex.lanes[o.lane] == nil {
			ex.lanes[o.lane] = l
		}
		l = ex.lanes[o.lane]
	}
	l.pending = append(l.pending, o)
	ex.released++
	if !l.busy && !l.queued {
		l.queued = true
		ex.ready = append(ex.ready, l)
		ex.cond.Signal()
	}
}

// next blocks for the next runnable op; nil once closed and drained.
func (ex *executor) next() (*op, *lane) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for len(ex.ready) == 0 {
		if ex.closed {
			return nil, nil
		}
		ex.cond.Wait()
	}
	l := ex.ready[0]
	ex.ready = ex.ready[1:]
	l.queued, l.busy = false, true
	o := l.pending[0]
	l.pending = l.pending[1:]
	ex.started++
	return o, l
}

func (ex *executor) finish(l *lane) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	l.busy = false
	if len(l.pending) > 0 {
		l.queued = true
		ex.ready = append(ex.ready, l)
		ex.cond.Signal()
	}
}

// backlog counts ops released but not yet started.
func (ex *executor) backlog() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.released - ex.started
}

func (ex *executor) close() {
	ex.mu.Lock()
	ex.closed = true
	ex.cond.Broadcast()
	ex.mu.Unlock()
}

// runner executes ops against one server through one client and records
// every correctness problem it sees.
type runner struct {
	profiles map[string]serve.Profile
	cl       *client.Client
	tracer   *tracer
	origin   time.Time
	rebuilds atomic.Int64

	mu       sync.Mutex
	problems []string
	wrong    []wrongResult
}

// wrongResult keeps a fetched result whose digest did not match, for the
// field-by-field report after the window.
type wrongResult struct {
	got  *serve.ResultJSON
	want *expect
}

func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// openLoop runs the ops due within window on schedule, using workers request
// goroutines, and waits for every released op to finish. It returns the
// number of ops released but not started when the window closed.
func (r *runner) openLoop(ops []*op, window time.Duration, workers int) int {
	ex := newExecutor()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, l := ex.next()
				if o == nil {
					return
				}
				r.exec(o)
				ex.finish(l)
			}
		}()
	}
	r.origin = time.Now()
	for _, o := range ops {
		if o.due >= window {
			break
		}
		if d := o.due - time.Since(r.origin); d > 0 {
			time.Sleep(d)
		}
		ex.release(o)
	}
	if d := window - time.Since(r.origin); d > 0 {
		time.Sleep(d)
	}
	backlog := ex.backlog()
	ex.close()
	wg.Wait()
	return backlog
}

// closedLoop runs the jobs with `clients` goroutines, each taking the next
// job and issuing its ops back to back, and returns the elapsed time.
func (r *runner) closedLoop(jobs [][]*op, clients int) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	r.origin = time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				for _, o := range jobs[k] {
					o.due = time.Since(r.origin)
					r.exec(o)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(r.origin)
}

// runAll issues ops with up to workers goroutines, unscheduled (set-up work).
func (r *runner) runAll(ops []*op, workers int) {
	r.origin = time.Now()
	ch := make(chan *op)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				o.due = time.Since(r.origin)
				r.exec(o)
			}
		}()
	}
	for _, o := range ops {
		ch <- o
	}
	close(ch)
	wg.Wait()
}

// exec performs one op, times it from its due time, and checks its output.
func (r *runner) exec(o *op) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if r.tracer != nil {
		ctx = context.WithValue(ctx, opIDKey{}, o.id)
	}
	o.start = time.Since(r.origin)
	t0 := time.Now()
	check := r.call(ctx, o)
	o.clientDur = time.Since(t0)
	o.end = time.Since(r.origin)
	if o.err == nil && check != nil {
		check()
	}
}

// call issues the op's requests and returns the output check to run once
// the op's clock has stopped.
func (r *runner) call(ctx context.Context, o *op) func() {
	switch o.act {
	case actIngest:
		resp, err := r.cl.Ingest(ctx, o.corpus, *o.body)
		if o.err = err; err != nil {
			return nil
		}
		r.rebuilds.Add(int64(resp.Rebuilds))
		return func() {
			if resp.Size != o.want || resp.Added != len(o.body.Entities) {
				r.problem("%s: ingest of %d answered added=%d size=%d, want size %d",
					o.corpus, len(o.body.Entities), resp.Added, resp.Size, o.want)
			}
		}
	case actDiscover:
		res, err := r.discover(ctx, o)
		if o.err = err; err != nil {
			return nil
		}
		o.stats, o.partitions = res.Stats, len(res.Partitions)
		return func() {
			if digest(res) != o.expect.digest {
				r.mu.Lock()
				if len(r.wrong) < 5 {
					r.wrong = append(r.wrong, wrongResult{got: res, want: o.expect})
				}
				r.mu.Unlock()
				r.problem("%s/%s: result differs from in-process DIME+", o.corpus, res.Job)
			}
		}
	case actPartitions:
		p, err := r.cl.Partitions(ctx, o.corpus)
		if o.err = err; err != nil {
			return nil
		}
		return func() {
			if err := coversExactly(p, o.want); err != nil {
				r.problem("%s: partitions poll: %v", o.corpus, err)
			}
		}
	case actScrollbar:
		s, err := r.cl.Scrollbar(ctx, o.corpus, o.arg)
		if o.err = err; err != nil {
			return nil
		}
		return func() {
			ref := o.expect.ref
			lv := ref.Levels[o.arg]
			if s.Levels != len(ref.Levels) || s.Rule != lv.RuleName ||
				!slices.Equal(s.EntityIDs, lv.EntityIDs) || !slices.Equal(s.PartitionIndexes, lv.PartitionIndexes) {
				r.problem("%s: scrollbar level %d differs from in-process DIME+", o.corpus, o.arg)
			}
		}
	case actWitness:
		wr, err := r.cl.Witness(ctx, o.corpus, o.arg)
		if o.err = err; err != nil {
			return nil
		}
		return func() {
			ref := o.expect.ref
			w, marked := ref.WitnessOf(o.arg)
			ok := wr.Marked == marked && len(wr.EntityIDs) == len(ref.Partitions[o.arg])
			if ok && marked {
				ok = wr.Witness != nil && *wr.Witness == serve.WitnessJSON{Rule: w.Rule, EntityID: w.EntityID, PivotID: w.PivotID}
			}
			for i, ei := range ref.Partitions[o.arg] {
				ok = ok && wr.EntityIDs[i] == ref.Group.Entities[ei].ID
			}
			if !ok {
				r.problem("%s: witness report for partition %d differs from in-process DIME+", o.corpus, o.arg)
			}
		}
	case actCorpus:
		c, err := r.cl.Corpus(ctx, o.corpus)
		if o.err = err; err != nil {
			return nil
		}
		return func() {
			if c.Entities != o.want {
				r.problem("%s: corpus reports %d entities, want %d", o.corpus, c.Entities, o.want)
			}
		}
	case actCreate:
		_, o.err = r.cl.CreateCorpus(ctx, serve.CreateCorpusRequest{ID: o.corpus, Profile: o.profile})
	case actDelete:
		o.err = r.cl.DeleteCorpus(ctx, o.corpus)
	}
	return nil
}

// discover submits a job, waits for it and fetches its result.
func (r *runner) discover(ctx context.Context, o *op) (*serve.ResultJSON, error) {
	job, err := r.cl.Discover(ctx, o.corpus, serve.DiscoverRequest{IntraWorkers: o.arg}, "")
	if err != nil {
		return nil, err
	}
	st, err := r.cl.WaitJob(ctx, o.corpus, job.Job)
	if err != nil {
		return nil, err
	}
	if st.State != serve.JobDone {
		return nil, fmt.Errorf("%s/%s ended %s: %s", o.corpus, job.Job, st.State, st.Error)
	}
	return r.cl.JobResult(ctx, o.corpus, job.Job)
}

// coversExactly checks a partitions poll lists each of the n ingested
// entities exactly once.
func coversExactly(p serve.PartitionsJSON, n int) error {
	if p.Entities != n {
		return fmt.Errorf("%d entities, want %d", p.Entities, n)
	}
	seen := make([]bool, n)
	count := 0
	for _, part := range p.Partitions {
		for _, ei := range part {
			if ei < 0 || ei >= n || seen[ei] {
				return fmt.Errorf("entity index %d out of range or repeated", ei)
			}
			seen[ei] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("partitions cover %d of %d entities", count, n)
	}
	return nil
}

// server is one running dimed service plus the client the benchmark drives
// it through.
type server struct {
	srv       *serve.Server
	cl        *client.Client
	transport *http.Transport
}

// startServer starts a dimed server on a loopback port, configured as
// cmd/dimed configures it, optionally instrumented by tr, and a client with
// at most conns connections and no retries: a refused or failed request is
// a failed operation, not hidden retry latency.
func startServer(profiles map[string]serve.Profile, tr *tracer, conns int, seed int64) (*server, error) {
	opts := serve.Options{
		Profiles: profiles,
		Registry: obs.NewRegistry(),
		Flight:   obs.NewFlightRecorder(obs.FlightOptions{}),
	}
	if tr != nil {
		opts.Registry, opts.Flight, opts.BeforeJob = tr.registry, tr.flight, tr.beforeJob
	}
	srv := serve.NewServer(opts)
	if tr != nil {
		srv.WrapHandler(tr.middleware)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = tagTransport{base: transport}
	}
	cl := client.New("http://"+srv.Addr(), client.Options{
		HTTPClient:  &http.Client{Transport: rt},
		MaxAttempts: 1,
		Breaker:     client.BreakerOptions{Threshold: -1},
		Rand:        rand.New(rand.NewSource(seed)),
		Registry:    obs.NewRegistry(),
	})
	return &server{srv: srv, cl: cl, transport: transport}, nil
}

// stop drains the server's jobs, closes it and waits for its connections.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.transport.CloseIdleConnections()
	return err
}

// setup starts a server and loads the workload's corpora into it: corpus
// creation plus the initial ingest, one request at a time (as steady as the
// closed loop, for the same reason). It returns the ingest ops so their
// latencies can be reported.
func setup(w *workload, tr *tracer, conns int, seed int64) (*server, *runner, []*op, error) {
	s, err := startServer(w.profiles, tr, conns, seed)
	if err != nil {
		return nil, nil, nil, &exitError{4, err}
	}
	r := &runner{profiles: w.profiles, cl: s.cl, tracer: tr}
	var ingests []*op
	perCorpus := make([][]*op, len(w.corpora))
	for i, c := range w.corpora {
		seq := []*op{{act: actCreate, corpus: c.id, profile: c.profile}}
		for lo := 0; lo < len(c.entities); lo += c.batch {
			hi := min(lo+c.batch, len(c.entities))
			o := &op{act: actIngest, corpus: c.id, body: &serve.IngestRequest{Entities: c.entities[lo:hi]}, want: hi}
			seq = append(seq, o)
			ingests = append(ingests, o)
		}
		perCorpus[i] = seq
	}
	r.closedLoop(perCorpus, closedClients)
	for _, seq := range perCorpus {
		for _, o := range seq {
			if o.err != nil {
				_ = s.stop()
				return nil, nil, nil, &exitError{4, fmt.Errorf("set-up %s %s: %w", o.act, o.corpus, o.err)}
			}
		}
	}
	if err := r.verdict(); err != nil {
		_ = s.stop()
		return nil, nil, nil, err
	}
	return s, r, ingests, nil
}
