package obs

import (
	"runtime"
	"time"
)

// This file is the module's single point of contact with the wall clock and
// the runtime's resource counters. Span timings, batch wall times and
// per-span allocation deltas are *metadata about* a run — they never feed
// result content — so the detersafe analyzer accepts exactly one absorbed
// clock read here instead of a reasoned //lint:ignore at every timing site.

// Now returns the current time (with its monotonic reading). Every timing
// site in the module — span starts, span durations, BatchStats.Wall — must
// read the clock through Now or Since so the nondeterminism stays confined
// to this one audited function.
func Now() time.Time {
	//lint:ignore detersafe the module's single absorbed clock read; timings are run metadata, never result content
	return time.Now()
}

// Since returns the time elapsed since t, using the monotonic clock via Now.
func Since(t time.Time) time.Duration { return Now().Sub(t) }

// heapSample is the buffer HeapCounters fills; a recorder run that
// attributes resources owns one and reuses it for every read (a zero value
// is ready to use).
type heapSample runtime.MemStats

// HeapCounters reads the runtime's cumulative heap allocation counters:
// objects and bytes allocated since process start. It reads them through
// runtime.ReadMemStats, which flushes every P's allocation cache first, so
// the counts include small objects allocated into still-cached spans (the
// runtime/metrics allocation counters advance only when a cached span is
// refilled, which charges one phase's allocations to a later one). The
// price is a stop-the-world per read. The counters are process-global: a
// delta taken across a span includes allocations from every concurrently
// running goroutine, so it is an upper bound on the span's own allocation.
func (buf *heapSample) HeapCounters() (objects, bytes uint64) {
	ms := (*runtime.MemStats)(buf)
	runtime.ReadMemStats(ms)
	return ms.Mallocs, ms.TotalAlloc
}
