package dime_test

import (
	"context"
	"testing"

	"dime/internal/difftest"
	"dime/internal/serve"
)

// TestDifferentialServeHTTP is the serving-layer conformance suite: across a
// corpus of seeded random groups (the same generator mix as
// TestDifferentialDIMEVariants), every discovery result served over the HTTP
// API must be byte-identical — partitions, pivot, scrollbar levels,
// witnesses and stats — to an in-process DIME+ run on the same group, at
// IntraWorkers 1, 2 and 4. Each keyed discover submission must run exactly
// one job, and replaying a key must return the original job. The client
// makes a single attempt per call, so every request must succeed first
// time. All cases share one httptest server, so the suite also exercises
// corpus create/ingest/delete lifecycles back to back against a single
// long-lived service. Failures log the case seed, so any divergence
// reproduces with `-run 'TestDifferentialServeHTTP/<case-name>'`.
func TestDifferentialServeHTTP(t *testing.T) {
	n := 210
	if testing.Short() {
		n = 45
	}
	tgt, done := difftest.NewServeTarget(serve.Options{Workers: 2})
	defer done()
	ctx := context.Background()
	for _, c := range difftest.Corpus(n, 0x5E12E) {
		t.Run(c.Name, func(t *testing.T) {
			difftest.CheckServe(t, ctx, tgt, c, 1, 2, 4)
		})
	}
}
