// Command dimed is the long-lived DIME discovery server: an HTTP JSON API
// over per-corpus incremental Session state, with asynchronous discovery
// jobs on a bounded worker pool and the repository's debug surface
// (/metrics, /debug/vars, /debug/flight, /debug/pprof/) built in.
//
// Usage:
//
//	dimed [-addr :8080] [-workers N] [-queue N] [-request-timeout 30s]
//	      [-shutdown-grace 30s] [-flight-threshold 0] [-flight-resources]
//	      [-chaos] [-chaos-seed 1] [-chaos-rate 0.1] [-chaos-latency 5ms]
//	      [-chaos-budget 0]
//
// Endpoints (see internal/serve for the full contract):
//
//	POST   /v1/corpora                            create a corpus {id, profile[, name]}
//	POST   /v1/corpora/{id}/entities              ingest entities
//	POST   /v1/corpora/{id}/discover              start an async discovery job → 202 {job}
//	GET    /v1/corpora/{id}/status/{job}          poll (or ?wait=true long-poll) the job
//	GET    /v1/corpora/{id}/results/{job}         fetch the full result
//	GET    /v1/corpora/{id}/scrollbar/{level}     one scrollbar level of the latest result
//	GET    /v1/corpora/{id}/witnesses/{partition} why a partition was marked
//
// Built-in profiles: scholar, amazon, dbgen. A full job queue returns 429
// (backpressure); draining returns 503. On SIGINT/SIGTERM the server drains
// queued and running jobs (bounded by -shutdown-grace) before exiting.
//
// The -chaos flags (testing only) mount a deterministic internal/fault
// middleware in front of the API: seeded rules inject latency and 503
// refusals on every route, and connection resets / truncated bodies on the
// routes a resilient client can safely retry (GETs and the
// idempotency-keyed discover). Same seed, same request sequence, same
// faults; fire counts appear in /metrics as dime.fault.*.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dime/internal/fault"
	"dime/internal/obs"
	"dime/internal/serve"
)

// chaosRules builds the -chaos rule set, scoped by replay safety: latency
// and pre-handler 503 refusals are safe on every route (the handler never
// ran); resets and truncations go only where a correct client can retry —
// GETs and the idempotency-keyed discover POST.
func chaosRules(rate float64, latency time.Duration, budget int) []fault.Rule {
	return []fault.Rule{
		{Name: "latency", P: rate, Kind: fault.KindLatency, Latency: latency, Budget: budget},
		{Name: "refuse-503", P: rate, Kind: fault.KindStatus, Status: 503, RetryAfter: "1", Budget: budget},
		{Name: "get-reset", Method: "GET", P: rate, Kind: fault.KindReset, Budget: budget},
		{Name: "get-truncate", Method: "GET", P: rate, Kind: fault.KindTruncate, Budget: budget},
		{Name: "discover-truncate", Method: "POST", Path: "*/discover", P: rate, Kind: fault.KindTruncate, Budget: budget},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// shutdownSignal delivers the signals that trigger graceful shutdown; tests
// replace notifySignals to inject one.
var notifySignals = func(ch chan<- os.Signal) {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
}

// run is the testable entry point: parse flags, start the server, wait for
// a shutdown signal, drain, exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dimed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers   = fs.Int("workers", 0, "discovery worker goroutines (0 = default)")
		queue     = fs.Int("queue", 0, "queued discovery jobs beyond running ones before 429 (0 = default 64)")
		reqTO     = fs.Duration("request-timeout", 30*time.Second, "per-request deadline; also caps ?wait=true long-polls")
		grace     = fs.Duration("shutdown-grace", 30*time.Second, "drain budget for queued/running jobs and in-flight requests on shutdown")
		flightThr = fs.Duration("flight-threshold", 0, "flight recorder keeps only requests/runs at least this slow (0 keeps all)")
		flightRes = fs.Bool("flight-resources", false, "attach per-span heap-allocation deltas to flight-recorder events (each span stops the world twice to read them)")

		chaos       = fs.Bool("chaos", false, "mount deterministic fault-injection middleware (testing only)")
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for -chaos fault decisions (same seed + same requests = same faults)")
		chaosRate   = fs.Float64("chaos-rate", 0.1, "per-rule fire probability for -chaos (0..1)")
		chaosLat    = fs.Duration("chaos-latency", 5*time.Millisecond, "latency injected per -chaos latency fire")
		chaosBudget = fs.Int("chaos-budget", 0, "per-rule cap on -chaos fires (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "dimed: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	srv := serve.NewServer(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *reqTO,
		Registry:       obs.Default(),
		Flight: obs.NewFlightRecorder(obs.FlightOptions{
			Threshold: *flightThr,
			Resources: *flightRes,
		}),
	})
	if *chaos {
		inj := fault.NewInjector(fault.Options{
			Seed:     *chaosSeed,
			Registry: obs.Default(),
			Rules:    chaosRules(*chaosRate, *chaosLat, *chaosBudget),
		})
		srv.WrapHandler(inj.Middleware)
		fmt.Fprintf(stderr, "dimed: CHAOS fault injection enabled (seed %d, rate %g, budget %d)\n",
			*chaosSeed, *chaosRate, *chaosBudget)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(stderr, "dimed: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "dimed: serving on http://%s (profiles: scholar, amazon, dbgen)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	notifySignals(sig)
	<-sig
	fmt.Fprintf(stderr, "dimed: shutting down, draining jobs (grace %v)\n", *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "dimed: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "dimed: drained cleanly")
	return 0
}
