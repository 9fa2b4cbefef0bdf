package difftest

// HTTP-backed differential runner: a Case executed end-to-end against a
// live dimed-style server (internal/serve) through the typed
// internal/client instead of in-process calls. The runner ingests the case
// group over the wire, submits keyed discovery jobs at several IntraWorkers
// settings, fetches the results back and demands byte-identity with an
// in-process DIME+ run on the same group — partitions, pivot, levels,
// witnesses and Stats — extending the repo's determinism invariant across
// the serialization and service boundary. It also requires exactly one job
// per submission, a keyed replay that returns the original job, and
// scrollbar and witness endpoints that match the same reference result.
//
// One runner serves two targets. NewServeTarget is the fault-free wire: a
// client with a single attempt and no breaker, so every request must get
// its expected status first time. NewChaosTarget puts deterministic fault
// injection on BOTH sides of the wire — an internal/fault middleware in
// front of the server (injected latency, 503 refusals, connection resets,
// truncated bodies) and an internal/fault transport under the client — and
// lets the client retry through every injected failure, so no fault may
// surface to the caller.
//
// Chaos fault rules are scoped by the replay-safety of each endpoint:
//
//   - injected latency and pre-handler 503 refusals are safe on every
//     route — the handler observably never ran, and the client always
//     retries refusals;
//   - connection resets and truncated bodies go only to GETs (idempotent
//     by HTTP semantics) and to POST .../discover, whose submissions carry
//     an Idempotency-Key so a retry returns the original job.
//
// Unkeyed mutations (corpus create, ingest, delete) see only latency and
// 503s: a transport-level failure there would be undecidable for the
// client (did the server apply it?), which is exactly why the client's
// retry policy refuses to retry them — the rules must not manufacture
// failures no correct client could absorb.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"dime/internal/client"
	"dime/internal/core"
	"dime/internal/fault"
	"dime/internal/obs"
	"dime/internal/serve"
)

// ChaosOptions seeds the fault plan.
type ChaosOptions struct {
	// Seed drives every RNG in the target: the server-side injector, the
	// client-side injector and the client's backoff jitter (offset so the
	// three streams differ). Same seed + same request sequence = same
	// faults.
	Seed int64
	// Rate is the per-rule fire probability; <= 0 uses 0.15.
	Rate float64
}

// Target is a live server plus the client pointed at it.
type Target struct {
	// Svc registers per-case profiles (configs carry node-mapper
	// functions, which do not serialize, so registration is programmatic).
	Svc *serve.Service
	// Client is the API client every DiffServe request goes through.
	Client *client.Client
	// ServerFaults injects at the server (middleware): 503s, resets,
	// truncations, latency. Nil on the fault-free target.
	ServerFaults *fault.Injector
	// ClientFaults injects at the client (transport): synthesized 503s
	// before the request leaves, truncated reads of real responses. Nil on
	// the fault-free target.
	ClientFaults *fault.Injector
	// Registry holds the client's retry/breaker counters for assertions.
	Registry *obs.Registry
}

// NewServeTarget starts a fault-free httptest server over a fresh
// serve.Service and a client that makes one attempt per call with the
// breaker off. The returned closer shuts the server down.
func NewServeTarget(opts serve.Options) (Target, func()) {
	return newTarget(opts, nil, nil, client.Options{
		MaxAttempts: 1,
		Breaker:     client.BreakerOptions{Threshold: -1},
	})
}

// NewChaosTarget starts an httptest server wrapped in fault middleware and
// builds the resilient client (with its own fault transport) against it.
// The returned closer shuts the server down.
func NewChaosTarget(opts serve.Options, chaos ChaosOptions) (Target, func()) {
	rate := chaos.Rate
	if rate <= 0 {
		rate = 0.15
	}
	serverFaults := fault.NewInjector(fault.Options{
		Seed: chaos.Seed,
		Rules: []fault.Rule{
			{Name: "latency", P: rate, Kind: fault.KindLatency, Latency: 200 * time.Microsecond},
			{Name: "refuse-503", P: rate, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "get-reset", Method: http.MethodGet, P: rate, Kind: fault.KindReset},
			{Name: "get-truncate", Method: http.MethodGet, P: rate, Kind: fault.KindTruncate},
			{Name: "discover-truncate", Method: http.MethodPost, Path: "*/discover", P: rate, Kind: fault.KindTruncate},
		},
	})
	clientFaults := fault.NewInjector(fault.Options{
		Seed: chaos.Seed + 1,
		Rules: []fault.Rule{
			{Name: "local-503", P: rate / 2, Kind: fault.KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "0"},
			{Name: "local-get-truncate", Method: http.MethodGet, P: rate / 2, Kind: fault.KindTruncate},
		},
	})
	return newTarget(opts, serverFaults, clientFaults, client.Options{
		HTTPClient:  &http.Client{Transport: clientFaults.Transport(nil)},
		MaxAttempts: 16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(chaos.Seed + 2)),
		Breaker:     client.BreakerOptions{Threshold: 16, Cooldown: 10 * time.Millisecond},
	})
}

// newTarget starts the server — behind serverFaults' middleware when
// non-nil — and points a client built from copts at it. A nil
// copts.HTTPClient uses the test server's own client.
func newTarget(opts serve.Options, serverFaults, clientFaults *fault.Injector, copts client.Options) (Target, func()) {
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Flight == nil {
		opts.Flight = obs.NewFlightRecorder(obs.FlightOptions{})
	}
	svc := serve.NewService(opts)
	h := serve.Handler(svc)
	if serverFaults != nil {
		h = serverFaults.Middleware(h)
	}
	ts := httptest.NewServer(h)
	if copts.HTTPClient == nil {
		copts.HTTPClient = ts.Client()
	}
	copts.Registry = obs.NewRegistry()
	tgt := Target{
		Svc:          svc,
		Client:       client.New(ts.URL, copts),
		ServerFaults: serverFaults,
		ClientFaults: clientFaults,
		Registry:     copts.Registry,
	}
	return tgt, ts.Close
}

// CheckServe runs the case through DiffServe under the caller's context and
// fails the test with the case name and seed on the first divergence.
func CheckServe(t TB, ctx context.Context, tgt Target, c Case, workers ...int) {
	t.Helper()
	if err := c.DiffServe(ctx, tgt, workers...); err != nil {
		t.Fatalf("case %s (seed %d): %v", c.Name, c.Seed, err)
	}
}

// DiffServe executes the case end-to-end through the target: register the
// case profile, create a corpus named after the case, ingest the group,
// then per workers entry a keyed discover → wait → results round trip that
// must return exactly — stats and witnesses included — the in-process
// sequential DIME+ result. A replay of the first key must return the
// original job, and the corpus must hold exactly one job per submission.
// The scrollbar (deepest level) and witness endpoints are checked against
// the same reference. The corpus is deleted before returning so a long
// corpus sweep holds one corpus at a time. Every request runs under ctx, so
// a test deadline cuts a retrying replay short.
func (c Case) DiffServe(ctx context.Context, tgt Target, workers ...int) error {
	want, err := core.DIMEPlus(c.Group, core.Options{
		Config: c.Config, Rules: c.Rules, IntraWorkers: 1, Probe: c.Probe,
	})
	if err != nil {
		return fmt.Errorf("DIME+(in-process): %w", err)
	}

	profile := "case-" + c.Name
	if err := tgt.Svc.RegisterProfile(profile, serve.Profile{Config: c.Config, Rules: c.Rules}); err != nil {
		return err
	}
	if _, err := tgt.Client.CreateCorpus(ctx, serve.CreateCorpusRequest{
		ID: c.Name, Profile: profile, Name: c.Group.Name,
	}); err != nil {
		return fmt.Errorf("create corpus: %w", err)
	}
	ingest := serve.IngestRequest{}
	for _, e := range c.Group.Entities {
		ingest.Entities = append(ingest.Entities, serve.EntityJSON{ID: e.ID, Values: e.Values})
	}
	ingested, err := tgt.Client.Ingest(ctx, c.Name, ingest)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ingested.Size != len(c.Group.Entities) {
		return fmt.Errorf("ingest: size %d, want %d", ingested.Size, len(c.Group.Entities))
	}

	firstKey, firstJob := "", ""
	for _, w := range workers {
		key := fmt.Sprintf("%s-w%d", c.Name, w)
		job, err := tgt.Client.Discover(ctx, c.Name, serve.DiscoverRequest{IntraWorkers: w}, key)
		if err != nil {
			return fmt.Errorf("workers=%d: discover: %w", w, err)
		}
		if firstKey == "" {
			firstKey, firstJob = key, job.Job
		}
		status, err := tgt.Client.WaitJob(ctx, c.Name, job.Job)
		if err != nil {
			return fmt.Errorf("workers=%d: wait: %w", w, err)
		}
		if status.State != serve.JobDone {
			return fmt.Errorf("workers=%d: job %s finished %q (error %q)", w, job.Job, status.State, status.Error)
		}
		wire, err := tgt.Client.JobResult(ctx, c.Name, job.Job)
		if err != nil {
			return fmt.Errorf("workers=%d: results: %w", w, err)
		}
		got, err := wire.Core(c.Group)
		if err != nil {
			return err
		}
		if err := exactDiff(want, got); err != nil {
			return fmt.Errorf("workers=%d: in-process vs over-HTTP: %w", w, err)
		}
	}

	// Idempotency: an explicit replay of the first key returns the original
	// job, and the corpus holds exactly one job per submission.
	replay, err := tgt.Client.Discover(ctx, c.Name, serve.DiscoverRequest{IntraWorkers: workers[0]}, firstKey)
	if err != nil {
		return fmt.Errorf("keyed replay: %w", err)
	}
	if replay.Job != firstJob {
		return fmt.Errorf("keyed replay enqueued a new job: %q, want %q", replay.Job, firstJob)
	}
	info, err := tgt.Client.Corpus(ctx, c.Name)
	if err != nil {
		return fmt.Errorf("corpus info: %w", err)
	}
	if info.Jobs != len(workers) {
		return fmt.Errorf("corpus ran %d jobs for %d submissions — retries duplicated work", info.Jobs, len(workers))
	}

	if err := c.checkScrollbarAndWitnesses(ctx, tgt, want); err != nil {
		return err
	}
	if err := tgt.Client.DeleteCorpus(ctx, c.Name); err != nil {
		return fmt.Errorf("delete corpus: %w", err)
	}
	return nil
}

// checkScrollbarAndWitnesses cross-checks the query endpoints against the
// reference result.
func (c Case) checkScrollbarAndWitnesses(ctx context.Context, tgt Target, want *core.Result) error {
	deepest := len(want.Levels) - 1
	if deepest < 0 {
		return nil
	}
	sb, err := tgt.Client.Scrollbar(ctx, c.Name, deepest)
	if err != nil {
		return fmt.Errorf("scrollbar: %w", err)
	}
	lv := want.Levels[deepest]
	if sb.Rule != lv.RuleName || !slices.Equal(sb.EntityIDs, lv.EntityIDs) || !slices.Equal(sb.PartitionIndexes, lv.PartitionIndexes) {
		return fmt.Errorf("scrollbar level %d diverged:\n  got  %+v\n  want %+v", deepest, sb, lv)
	}
	for _, pi := range markedOf(want) {
		wr, err := tgt.Client.Witness(ctx, c.Name, pi)
		if err != nil {
			return fmt.Errorf("witnesses/%d: %w", pi, err)
		}
		w := want.Witnesses[pi]
		if !wr.Marked || wr.Witness == nil ||
			wr.Witness.Rule != w.Rule || wr.Witness.EntityID != w.EntityID || wr.Witness.PivotID != w.PivotID {
			return fmt.Errorf("witness for partition %d diverged: got %+v, want %+v", pi, wr, w)
		}
	}
	return nil
}
