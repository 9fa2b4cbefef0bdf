package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on probe: a fixed-size, sharded, lock-free
// ring buffer of recent span traces, cheap enough to leave attached in
// production. Every StartRun builds a compact flattened trace (pre-order
// events with depth, timing, counters and — opt-in — heap-allocation
// deltas) on the running goroutine with no locks; when the root span ends,
// tail-based retention decides whether the trace is worth keeping: roots at
// or above Threshold are committed to the ring with two atomic stores,
// faster roots are counted and dropped. The ring overwrites oldest-first
// per shard, so a dump always shows the most recent slow operations — the
// "what did the last N slow runs actually do" question the expvar counters
// cannot answer.
//
// Concurrency: StartRun is safe for concurrent use (batch runs share one
// recorder); each span tree is built by the goroutine that started the run,
// per the Probe contract. Snapshot and WriteJSON are lock-free reads that
// may run concurrently with commits — each slot holds an immutable
// committed trace behind an atomic pointer, so readers see a consistent
// recent subset without stalling writers.
type FlightRecorder struct {
	threshold int64 // ns; roots shorter than this are dropped
	resources bool
	shards    []flightShard
	mask      uint64
	base      time.Time
	kept      atomic.Int64
	dropped   atomic.Int64
}

// flightShard is one ring segment. The pad keeps neighbouring shards'
// sequence counters off one cache line so concurrent commits don't false-
// share.
type flightShard struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[FlightTrace]
	_     [40]byte
}

// FlightOptions configures a recorder; the zero value selects the defaults.
type FlightOptions struct {
	// Capacity sizes the ring; 0 means 256. It is split evenly across the
	// shards (rounded up to a multiple of the shard count), and each shard
	// is its own ring of Capacity/Shards slots, overwritten oldest-first.
	// Runs land on shards by start time, not round-robin, so when they
	// spread unevenly a busy shard overwrites while others still have free
	// slots, and a dump can hold fewer than Capacity of the most recent
	// traces. Shards: 1 makes the ring an exact most-recent-Capacity window.
	Capacity int
	// Shards is the number of independent ring segments (rounded up to a
	// power of two); 0 means the next power of two ≥ GOMAXPROCS, capped at
	// 64.
	Shards int
	// Threshold is the tail-retention latency bound: a run whose root span
	// is shorter is dropped (counted, not stored). 0 keeps every run.
	Threshold time.Duration
	// Resources attaches per-span heap-allocation deltas (objects and
	// bytes, from runtime.ReadMemStats) to every event. The counters are
	// process-global, so spans running concurrently with other goroutines
	// over-attribute; see heapSample.HeapCounters. Each span costs two
	// reads, and every read stops the world.
	Resources bool
}

// NewFlightRecorder builds a recorder with the given options.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 256
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 64 {
			shards = 64
		}
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	perShard := (capacity + shards - 1) / shards
	fr := &FlightRecorder{
		threshold: opts.Threshold.Nanoseconds(),
		resources: opts.Resources,
		shards:    make([]flightShard, shards),
		mask:      uint64(shards - 1),
		base:      Now(),
	}
	for i := range fr.shards {
		fr.shards[i].slots = make([]atomic.Pointer[FlightTrace], perShard)
	}
	return fr
}

var defaultFlight atomic.Pointer[FlightRecorder]

// DefaultFlight returns the shared process-wide recorder (created on first
// use with default options) — the one DebugMux serves at /debug/flight when
// given no recorder, and the one the CLI tools attach.
func DefaultFlight() *FlightRecorder {
	if fr := defaultFlight.Load(); fr != nil {
		return fr
	}
	fr := NewFlightRecorder(FlightOptions{})
	if defaultFlight.CompareAndSwap(nil, fr) {
		return fr
	}
	return defaultFlight.Load()
}

// FlightTrace is one retained run: its root name and attributes plus the
// flattened pre-order event list (Events[0] is the root; Depth gives the
// nesting). StartNS is the offset from recorder creation.
type FlightTrace struct {
	Name    string        `json:"name"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	StartNS int64         `json:"start_ns"`
	DurNS   int64         `json:"dur_ns"`
	Events  []FlightEvent `json:"events"`
}

// FlightEvent is one span of a retained trace. StartNS is relative to the
// trace root. AllocObjects/AllocBytes are the heap-allocation deltas across
// the span when resource attribution is on (process-global counters, so an
// upper bound on the span's own allocation when other goroutines run).
type FlightEvent struct {
	Name         string          `json:"name"`
	Attrs        []Attr          `json:"attrs,omitempty"`
	Depth        int             `json:"depth"`
	StartNS      int64           `json:"start_ns"`
	DurNS        int64           `json:"dur_ns"`
	Counters     []FlightCounter `json:"counters,omitempty"`
	AllocObjects uint64          `json:"alloc_objects,omitempty"`
	AllocBytes   uint64          `json:"alloc_bytes,omitempty"`
}

// FlightCounter is one span counter (kept as a small slice, not a map, so
// recording stays allocation-light and dumps stay deterministically
// ordered by first increment).
type FlightCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Kept returns the number of traces committed to the ring so far.
func (fr *FlightRecorder) Kept() int64 { return fr.kept.Load() }

// Dropped returns the number of runs discarded by tail retention.
func (fr *FlightRecorder) Dropped() int64 { return fr.dropped.Load() }

// StartRun implements Probe.
func (fr *FlightRecorder) StartRun(name string, attrs ...Attr) Span {
	b := &flightBuild{fr: fr, start: Now()}
	b.trace.Name = name
	b.trace.StartNS = b.start.Sub(fr.base).Nanoseconds()
	if len(attrs) > 0 {
		b.trace.Attrs = append([]Attr(nil), attrs...)
	}
	b.trace.Events = make([]FlightEvent, 1, 16)
	root := &b.trace.Events[0]
	root.Name = name
	root.Attrs = b.trace.Attrs
	if fr.resources {
		b.heap = new(heapSample)
		root.AllocObjects, root.AllocBytes = b.heap.HeapCounters()
	}
	return &flightSpan{b: b, idx: 0, depth: 0, start: b.start}
}

// flightBuild is the per-run recording state, owned by the goroutine that
// started the run.
type flightBuild struct {
	fr    *FlightRecorder
	trace FlightTrace
	start time.Time
	heap  *heapSample // nil unless the recorder attributes resources
}

// flightSpan is one open span; idx addresses its event in the build's
// flattened list (indices stay valid across slice growth because End
// re-addresses through the build).
type flightSpan struct {
	b     *flightBuild
	idx   int
	depth int
	start time.Time
	ended bool
}

func (s *flightSpan) StartSpan(phase string, attrs ...Attr) Span {
	b := s.b
	now := Now()
	ev := FlightEvent{
		Name:    phase,
		Depth:   s.depth + 1,
		StartNS: now.Sub(b.start).Nanoseconds(),
	}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	if b.fr.resources {
		ev.AllocObjects, ev.AllocBytes = b.heap.HeapCounters()
	}
	b.trace.Events = append(b.trace.Events, ev)
	return &flightSpan{b: b, idx: len(b.trace.Events) - 1, depth: s.depth + 1, start: now}
}

func (s *flightSpan) Count(name string, delta int64) {
	cs := s.b.trace.Events[s.idx].Counters
	for i := range cs {
		if cs[i].Name == name {
			cs[i].Value += delta
			return
		}
	}
	s.b.trace.Events[s.idx].Counters = append(cs, FlightCounter{Name: name, Value: delta})
}

func (s *flightSpan) End() {
	if s.ended {
		return
	}
	s.ended = true
	b := s.b
	ev := &b.trace.Events[s.idx]
	ev.DurNS = Since(s.start).Nanoseconds()
	if b.fr.resources {
		objs, bytes := b.heap.HeapCounters()
		ev.AllocObjects = objs - ev.AllocObjects
		ev.AllocBytes = bytes - ev.AllocBytes
	}
	if s.idx == 0 {
		b.trace.DurNS = ev.DurNS
		b.fr.finish(&b.trace)
	}
}

// finish applies tail retention and commits a kept trace into its shard.
func (fr *FlightRecorder) finish(tr *FlightTrace) {
	if tr.DurNS < fr.threshold {
		fr.dropped.Add(1)
		return
	}
	// Shard by the run's start offset: runs starting in different
	// microseconds land in different shards without any shared counter.
	sh := &fr.shards[uint64(tr.StartNS>>10)&fr.mask]
	i := sh.seq.Add(1) - 1
	sh.slots[i%uint64(len(sh.slots))].Store(tr)
	fr.kept.Add(1)
}

// Snapshot returns the retained traces, oldest first (by root start
// offset). It never blocks recording; traces committed while the snapshot
// runs may or may not appear.
func (fr *FlightRecorder) Snapshot() []*FlightTrace {
	var out []*FlightTrace
	for si := range fr.shards {
		sh := &fr.shards[si]
		for i := range sh.slots {
			if tr := sh.slots[i].Load(); tr != nil {
				out = append(out, tr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FlightExport is the JSON document a flight dump marshals to.
type FlightExport struct {
	Version     int            `json:"version"`
	Tool        string         `json:"tool"`
	ThresholdNS int64          `json:"threshold_ns"`
	Kept        int64          `json:"kept"`
	Dropped     int64          `json:"dropped"`
	Traces      []*FlightTrace `json:"traces"`
}

// Export snapshots the recorder into its JSON document form.
func (fr *FlightRecorder) Export() *FlightExport {
	traces := fr.Snapshot()
	if traces == nil {
		traces = []*FlightTrace{}
	}
	return &FlightExport{
		Version:     1,
		Tool:        "dime-flight",
		ThresholdNS: fr.threshold,
		Kept:        fr.Kept(),
		Dropped:     fr.Dropped(),
		Traces:      traces,
	}
}

// WriteJSON writes the indented JSON export — the `dime -flight-out` format,
// also served at /debug/flight.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(fr.Export(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
