package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/serve"
)

// Workload sizes and rates. The open-loop rates are sized so the server sits
// near half a core on a 2-core x86 host; dbgenJobsPerSecond sets the fixed
// job count of dbgen-batch (jobs = rate × --seconds), so both commits of a
// comparison run the same number of jobs and retain the same results.
const (
	pagesCorpora       = 24   // 3 Scholar pages : 1 Amazon category
	pagesDiscoverRate  = 14.0 // discover submits per second
	pagesReadsPerJob   = 10   // reads per discover submit
	pagesIngestBatch   = 16   // entities per set-up ingest request
	dbgenEntities      = 4000
	dbgenIngestBatch   = 16
	dbgenJobsPerSecond = 3.0
	dbgenWitnessReads  = 4
	streamLanes        = 4
	streamPageSize     = 1000 // entities a corpus grows to before it is recycled
	streamCheckpoint   = 125  // a discover runs each time a corpus crosses a multiple of this
	streamBatchRate    = 30.0 // ingest requests per second per corpus
	streamPollRate     = 10.0 // partitions polls per second per corpus
	streamPrefillBatch = 50
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pages-discover", "dbgen-batch", "ingest-stream"}

// action is what one operation does against the server.
type action uint8

const (
	actIngest action = iota
	actDiscover
	actPartitions
	actScrollbar
	actWitness
	actCorpus
	actCreate
	actDelete
)

var actionNames = [...]string{"ingest", "discover", "partitions", "scrollbar", "witness", "corpus", "create", "delete"}

func (a action) String() string { return actionNames[a] }

// kind groups actions into the classes the end-to-end metrics report.
type kind uint8

const (
	kindIngest kind = iota
	kindDiscover
	kindRead
	kindAdmin
)

func (a action) kind() kind {
	switch a {
	case actIngest:
		return kindIngest
	case actDiscover:
		return kindDiscover
	case actCreate, actDelete:
		return kindAdmin
	default:
		return kindRead
	}
}

// expect is the reference a discover result (and the reads of it) is checked
// against: DIME+ run in-process on exactly the entities the corpus holds when
// the job is submitted.
type expect struct {
	corpus   string
	profile  string
	entities []serve.EntityJSON
	digest   [32]byte
	// ref is kept where reads (scrollbar, witness) are checked against it.
	ref *core.Result
	// encodeMS is the time to encode the reference with the server's result
	// codec (serve.ResultFromCore plus indented encoding/json).
	encodeMS float64
}

// op is one scheduled request. The fields before the blank line are the
// generated input; the ones after it are filled in by the executor.
type op struct {
	id      int64
	act     action
	corpus  string
	profile string // actCreate
	arg     int    // scrollbar level, witness partition, discover intra_workers
	body    *serve.IngestRequest
	want    int // corpus size after an ingest, or seen by a read
	expect  *expect
	lane    int // ops of one lane run in order, one at a time; -1 = unordered
	due     time.Duration

	start, end time.Duration
	clientDur  time.Duration
	err        error
	stats      core.Stats
	partitions int
}

// corpusSpec is one corpus created at set-up, with its initial entities.
type corpusSpec struct {
	id       string
	profile  string
	entities []serve.EntityJSON
	batch    int
}

// workload is the generated input of one benchmark run.
type workload struct {
	// profiles is the one profile set both the server and the in-process
	// references use. Two serve.BuiltinProfiles() calls can build different
	// Amazon profiles (a description word in two categories' vocabularies
	// maps to whichever the map iteration visits last), so the reference
	// must run under the server's own instance.
	profiles map[string]serve.Profile
	corpora  []corpusSpec
	// warmup runs one discover per corpus before the window, so the window's
	// scrollbar and witness reads have a completed discovery to read.
	warmup []*op
	// open holds the open-loop schedule, sorted by due time.
	open []*op
	// jobs holds the closed-loop work: each job is a discover followed by the
	// reads of its result, issued back to back by one client.
	jobs    [][]*op
	expects []*expect
}

// buildWorkload generates the named workload's inputs and schedule from seed.
func buildWorkload(name string, seed int64, seconds float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	profiles := serve.BuiltinProfiles()
	var w *workload
	var err error
	switch name {
	case "pages-discover":
		w, err = pagesDiscover(rng, profiles, seconds)
	case "dbgen-batch":
		w, err = dbgenBatch(rng, profiles, seconds)
	case "ingest-stream":
		w, err = ingestStream(rng, profiles, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.profiles = profiles
	var id int64
	number := func(ops []*op) {
		for _, o := range ops {
			id++
			o.id = id
		}
	}
	number(w.warmup)
	number(w.open)
	for _, j := range w.jobs {
		number(j)
	}
	return w, nil
}

func toJSON(g *entity.Group) []serve.EntityJSON {
	out := make([]serve.EntityJSON, len(g.Entities))
	for i, e := range g.Entities {
		out[i] = serve.EntityJSON{ID: e.ID, Values: e.Values}
	}
	return out
}

// newExpect computes the reference result for a corpus holding entities.
func newExpect(profiles map[string]serve.Profile, corpus, profile string, entities []serve.EntityJSON, keep bool) (*expect, error) {
	p := profiles[profile]
	g := entity.NewGroup(corpus, p.Config.Schema)
	for _, je := range entities {
		e, err := entity.NewEntity(g.Schema, je.ID, je.Values)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", corpus, err)
		}
		g.Entities = append(g.Entities, e)
	}
	res, err := core.DIMEPlus(g, core.Options{Config: p.Config, Rules: p.Rules, IntraWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", corpus, err)
	}
	wire := serve.ResultFromCore(corpus, "", res)
	e := &expect{corpus: corpus, profile: profile, entities: entities, digest: digest(wire)}
	e.encodeMS = timeEncode(corpus, res)
	if keep {
		e.ref = res
	}
	return e, nil
}

// digest hashes a wire result without its job ID. The wire codec is
// lossless for the fields internal/difftest compares exactly — partitions,
// pivot, levels, witnesses and stats — and json.Marshal is canonical (map
// keys sorted, nil slices as null), so equal digests mean equal results.
func digest(r *serve.ResultJSON) [32]byte {
	c := *r
	c.Job = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return [32]byte{} // never matches a reference digest
	}
	return sha256.Sum256(b)
}

// pagesDiscover: 24 corpora (18 Scholar pages of ~330 entities, 6 Amazon
// categories of ~250), then an open loop of discover submits at a fixed rate
// to random corpora with ten reads of the latest results per submit.
func pagesDiscover(rng *rand.Rand, profiles map[string]serve.Profile, seconds float64) (*workload, error) {
	w := &workload{}
	nAmazon := pagesCorpora / 4
	cats := amazonCategories()
	picked := make([]string, nAmazon)
	for i, j := range rng.Perm(len(cats))[:nAmazon] {
		picked[i] = cats[j]
	}
	amz := datagen.Amazon(datagen.AmazonOptions{
		ProductsPerCategory: 230, ErrorRate: 0.08, Seed: rng.Int63(), Categories: picked,
	})
	nextAmazon := 0
	for i := 0; i < pagesCorpora; i++ {
		spec := corpusSpec{id: fmt.Sprintf("page-%02d", i), batch: pagesIngestBatch}
		if i%4 == 3 {
			spec.profile = "amazon"
			spec.entities = toJSON(amz.Groups[nextAmazon])
			nextAmazon++
		} else {
			spec.profile = "scholar"
			g := datagen.Scholar(datagen.ScholarOptions{NumPubs: 300, ErrorRate: 0.1, Seed: rng.Int63()})
			spec.entities = toJSON(g)
		}
		w.corpora = append(w.corpora, spec)
		e, err := newExpect(profiles, spec.id, spec.profile, spec.entities, true)
		if err != nil {
			return nil, err
		}
		w.expects = append(w.expects, e)
		w.warmup = append(w.warmup, &op{act: actDiscover, corpus: spec.id, expect: e, lane: -1})
	}

	// Every corpus is discovered equally often and every read kind is
	// equally frequent, in a seeded order; the seed changes which corpus and
	// which level or partition, not the mix.
	jobs := int(pagesDiscoverRate * seconds)
	readGap := every(pagesDiscoverRate * pagesReadsPerJob)
	jobGap := readGap * pagesReadsPerJob
	var order, readOrder []int
	for k := 0; k < jobs; k++ {
		if len(order) == 0 {
			order = rng.Perm(pagesCorpora)
		}
		c := order[0]
		order = order[1:]
		due := time.Duration(k) * jobGap
		w.open = append(w.open, &op{act: actDiscover, corpus: w.corpora[c].id, expect: w.expects[c], lane: -1, due: due})
		for r := 0; r < pagesReadsPerJob; r++ {
			if len(readOrder) == 0 {
				readOrder = rng.Perm(4 * pagesCorpora)
			}
			w.open = append(w.open, readOp(rng, readOrder[0], w.corpora, w.expects, due+readGap/2+time.Duration(r)*readGap))
			readOrder = readOrder[1:]
		}
	}
	sortByDue(w.open)
	return w, nil
}

// readOp builds read number n (mod 4×corpora) of the read cycle: corpus
// n/4, read kind n%4.
func readOp(rng *rand.Rand, n int, corpora []corpusSpec, expects []*expect, due time.Duration) *op {
	c := n / 4
	e := expects[c]
	o := &op{corpus: corpora[c].id, expect: e, lane: -1, due: due, want: len(corpora[c].entities)}
	switch n % 4 {
	case 0:
		o.act = actScrollbar
		o.arg = rng.Intn(len(e.ref.Levels))
	case 1:
		o.act = actWitness
		o.arg = rng.Intn(len(e.ref.Partitions))
	case 2:
		o.act = actPartitions
	default:
		o.act = actCorpus
	}
	return o
}

func amazonCategories() []string {
	c := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: 1, Seed: 1})
	cats := make([]string, 0, len(c.CategoryNode))
	for cat := range c.CategoryNode {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	return cats
}

// dbgenBatch: one DBGen group of 4000 entities, then a closed loop of
// sequential (intra_workers=1) discover jobs, each followed by reads of its
// first scrollbar level, a few witnesses and the corpus summary.
func dbgenBatch(rng *rand.Rand, profiles map[string]serve.Profile, seconds float64) (*workload, error) {
	w := &workload{}
	g := datagen.DBGen(datagen.DBGenOptions{NumEntities: dbgenEntities, ErrorRate: 0.1, Seed: rng.Int63()})
	spec := corpusSpec{id: "dbgen", profile: "dbgen", entities: toJSON(g), batch: dbgenIngestBatch}
	w.corpora = []corpusSpec{spec}
	e, err := newExpect(profiles, spec.id, spec.profile, spec.entities, true)
	if err != nil {
		return nil, err
	}
	w.expects = []*expect{e}
	jobs := max(4, int(dbgenJobsPerSecond*seconds+0.5))
	for k := 0; k < jobs; k++ {
		job := []*op{
			{act: actDiscover, corpus: spec.id, arg: 1, expect: e, lane: -1},
			{act: actScrollbar, corpus: spec.id, arg: 0, expect: e, lane: -1},
		}
		for r := 0; r < dbgenWitnessReads; r++ {
			job = append(job, &op{act: actWitness, corpus: spec.id, arg: rng.Intn(len(e.ref.Partitions)), expect: e, lane: -1})
		}
		job = append(job, &op{act: actCorpus, corpus: spec.id, want: len(spec.entities), lane: -1})
		w.jobs = append(w.jobs, job)
	}
	return w, nil
}

// ingestStream: four Scholar corpora grow from empty to ~1000 entities in
// open-loop batches of 1–8 entities while each is polled with GET
// partitions; every 125 entities the corpus gets a sequential
// (intra_workers=1) discover, and at ~1000 it is deleted and recreated from
// the next seeded page. Corpus i starts
// pre-filled with i×250 entities, so the corpora are out of phase and the
// mix is the same throughout the window.
func ingestStream(rng *rand.Rand, profiles map[string]serve.Profile, seconds float64) (*workload, error) {
	w := &workload{}
	window := time.Duration(seconds * float64(time.Second))
	batchGap := every(streamBatchRate)
	pollGap := every(streamPollRate)
	page := func() []serve.EntityJSON {
		g := datagen.Scholar(datagen.ScholarOptions{NumPubs: streamPageSize * 9 / 10, ErrorRate: 0.1, Seed: rng.Int63()})
		return toJSON(g)
	}
	for lane := 0; lane < streamLanes; lane++ {
		cycle := 0
		id := func() string { return fmt.Sprintf("stream-%d-%d", lane, cycle) }
		ents := page()
		size := min(lane*streamPageSize/streamLanes, len(ents))
		w.corpora = append(w.corpora, corpusSpec{id: id(), profile: "scholar", entities: ents[:size], batch: streamPrefillBatch})

		offset := time.Duration(lane) * batchGap / streamLanes
		nextBatch, nextPoll := offset, offset+pollGap/2
		var ops []*op
		for nextBatch < window || nextPoll < window {
			if nextPoll < nextBatch {
				ops = append(ops, &op{act: actPartitions, corpus: id(), want: size, lane: lane, due: nextPoll})
				nextPoll += pollGap
				continue
			}
			due := nextBatch
			nextBatch += batchGap
			n := min(1+rng.Intn(8), len(ents)-size)
			body := &serve.IngestRequest{Entities: ents[size : size+n]}
			before := size
			size += n
			ops = append(ops, &op{act: actIngest, corpus: id(), body: body, want: size, lane: lane, due: due})
			if size/streamCheckpoint > before/streamCheckpoint || size == len(ents) {
				e := &expect{corpus: id(), profile: "scholar", entities: ents[:size]}
				w.expects = append(w.expects, e)
				ops = append(ops, &op{act: actDiscover, corpus: id(), arg: 1, expect: e, lane: lane, due: due})
			}
			if size == len(ents) {
				ops = append(ops, &op{act: actDelete, corpus: id(), lane: lane, due: due})
				cycle++
				ents, size = page(), 0
				ops = append(ops, &op{act: actCreate, corpus: id(), profile: "scholar", lane: lane, due: due})
			}
		}
		for _, o := range ops {
			if o.due < window {
				w.open = append(w.open, o)
			}
		}
	}
	sortByDue(w.open)
	// Only the discovers inside the window need a reference.
	var used []*expect
	for _, o := range w.open {
		if o.act == actDiscover {
			used = append(used, o.expect)
		}
	}
	for _, e := range used {
		ref, err := newExpect(profiles, e.corpus, e.profile, e.entities, false)
		if err != nil {
			return nil, err
		}
		e.digest, e.encodeMS = ref.digest, ref.encodeMS
	}
	w.expects = used
	return w, nil
}

// every is the gap between arrivals at rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// sortByDue orders a schedule by due time; ties keep generation order, which
// is lane order for ops sharing a lane.
func sortByDue(ops []*op) {
	slices.SortStableFunc(ops, func(a, b *op) int { return cmp.Compare(a.due, b.due) })
}
