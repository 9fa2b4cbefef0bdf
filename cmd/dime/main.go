// Command dime discovers mis-categorized entities in a group loaded from a
// JSON file (the format cmd/datagen writes: a serialized entity.Group).
//
// Usage:
//
//	dime -in group.json [-preset scholar|amazon|dbgen] [-level N] [-basic] [-stats] [-why] [-intra-workers N]
//	dime -in group.json -pos "ov(Authors) >= 2" -pos "..." -neg "ov(Authors) = 0"
//	dime -in group.json -rules rules.json [-ontology tree.json -tree Venue]
//	dime -in labeled.json -preset scholar -learn rules.json
//	dime -in group.json -preset scholar -flight-out flight.json -log
//	dime -in corpus.jsonl -preset scholar -stats -serve-debug :6060
//
// With a preset, the paper's rule set and record configuration for that
// dataset are used; -rules loads a rule-set JSON file instead (combined with
// -preset it reuses the preset's configuration, so on(...) predicates
// resolve); -pos/-neg parse ad-hoc DSL rules (functions: ov, jac, dice, cos,
// eds, ed, on). -learn runs the Section-V rule generator over the group's
// ground truth and writes the learned rule set. The tool prints each
// scrollbar level's discovered entities, with -why the per-partition
// witness, and with -stats the work counters (for corpora, the batch
// aggregate with wall time and worker count).
//
// Observability: -flight-out FILE writes the span tree of every run the
// invocation starts (every pipeline phase with its attrs, timings and work
// counters, as depth-tagged pre-order events), keeping only runs at least
// -flight-threshold long and adding per-span heap-allocation deltas under
// -flight-resources (read through runtime.ReadMemStats, a stop-the-world
// per span boundary); -log emits one structured log line per completed
// phase to stderr; -serve-debug ADDR serves /debug/pprof/, /debug/vars,
// /debug/flight and a Prometheus-format /metrics for the duration of the
// run and then waits for ctrl-c so the endpoints can be inspected.
// -metrics-out FILE writes the final Prometheus text snapshot. With -stats,
// phase-latency quantiles (p50/p90/p99, interpolated from fixed-bucket
// histograms) follow the work counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"dime"
	"dime/internal/analysis"
	"dime/internal/datagen"
	"dime/internal/entity"
	"dime/internal/metrics"
	"dime/internal/obs"
	"dime/internal/ontology"
	"dime/internal/presets"
	"dime/internal/rulegen"
	"dime/internal/rules"
)

type stringsFlag []string

func (s *stringsFlag) String() string { return fmt.Sprint(*s) }
func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: it parses args, executes, writes human
// output to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dime", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input file: group JSON, JSON-lines corpus, or CSV (required)")
		csvSep     = fs.String("csv-sep", "; ", "multi-value separator for CSV cells")
		csvID      = fs.String("csv-id", "", "CSV column holding entity IDs (default: first column)")
		preset     = fs.String("preset", "", "rule preset: scholar, amazon or dbgen")
		rulesFile  = fs.String("rules", "", "rule-set JSON file (see dime.MarshalRuleSet for the format)")
		ontoFile   = fs.String("ontology", "", "ontology JSON file; registers the tree for attributes named in -tree")
		treeAttrs  stringsFlag
		level      = fs.Int("level", -1, "scrollbar level to report (default: all levels)")
		basic      = fs.Bool("basic", false, "run the quadratic reference algorithm DIME instead of DIME+")
		stats      = fs.Bool("stats", false, "print work counters (batch aggregate for corpora)")
		why        = fs.Bool("why", false, "print the witnessing rule and entity pair per flagged partition")
		learn      = fs.String("learn", "", "learn a rule set from the group's ground truth and write it to this file")
		profile    = fs.Bool("profile", false, "profile the group's attributes (coverage, token shape, separability) and exit")
		intra      = fs.Int("intra-workers", 0, "worker goroutines within each DIME+ run (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		logSpans   = fs.Bool("log", false, "emit one structured log line per completed phase to stderr")
		serveDebug = fs.String("serve-debug", "", "serve /debug/pprof/, /debug/vars, /debug/flight and /metrics on this address (e.g. :6060)")
		metricsOut = fs.String("metrics-out", "", "write the final metrics snapshot in Prometheus text format to this file")
		flightOut  = fs.String("flight-out", "", "write the span trace of every retained run as JSON to this file")
		flightThr  = fs.Duration("flight-threshold", 0, "flight recorder keeps only runs at least this long (0 keeps all)")
		flightRes  = fs.Bool("flight-resources", false, "attach per-span heap-allocation deltas to flight-recorder events (each span stops the world twice to read them)")
		pos        stringsFlag
		neg        stringsFlag
	)
	fs.Var(&pos, "pos", "positive rule DSL (repeatable)")
	fs.Var(&neg, "neg", "negative rule DSL (repeatable)")
	fs.Var(&treeAttrs, "tree", "attribute to attach the -ontology tree to (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *in == "" {
		fmt.Fprintln(stderr, "dime: -in is required")
		fs.Usage()
		return 2
	}

	groups, err := loadGroups(*in, *csvID, *csvSep)
	if err != nil {
		fmt.Fprintf(stderr, "dime: %v\n", err)
		return 1
	}

	// Observability wiring: any combination of per-span logs, the metrics
	// registry (behind the debug server and/or -metrics-out and -stats
	// quantiles), and the flight recorder.
	var (
		reg    *obs.Registry
		fr     *obs.FlightRecorder
		probes []obs.Probe
		srv    *obs.DebugServer
	)
	if *logSpans {
		probes = append(probes, obs.Logged(obs.NewLogger(stderr, slog.LevelInfo), slog.LevelInfo))
	}
	if *serveDebug != "" {
		// The debug server exposes the process-wide registry, so feed that
		// one; otherwise a run-local registry keeps the snapshot scoped.
		reg = obs.Default()
	} else if *stats || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if reg != nil {
		probes = append(probes, obs.Observer(reg))
	}
	if *flightOut != "" || *serveDebug != "" || *flightThr > 0 || *flightRes {
		// One shard sized to every run the input can start makes the ring
		// an exact window that no run of this invocation falls out of.
		fr = obs.NewFlightRecorder(obs.FlightOptions{
			Capacity: maxRuns(groups, *learn), Shards: 1,
			Threshold: *flightThr, Resources: *flightRes,
		})
		probes = append(probes, fr)
	}
	if *serveDebug != "" {
		var err error
		if srv, err = obs.ServeDebug(*serveDebug, reg, fr); err != nil {
			fmt.Fprintf(stderr, "dime: %v\n", err)
			return 1
		}
		defer func() { _ = srv.Close() }()
	}
	probe := obs.Multi(probes...)

	code := runInput(stdout, stderr, probe, groups, cliArgs{
		preset: *preset, rulesFile: *rulesFile, ontoFile: *ontoFile,
		treeAttrs: treeAttrs, pos: pos, neg: neg,
		level: *level, basic: *basic, stats: *stats, why: *why,
		learn: *learn, profile: *profile, intraWorkers: *intra,
		reg: reg,
	})

	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, reg.WritePrometheus); err != nil {
			fmt.Fprintf(stderr, "dime: writing metrics: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if *flightOut != "" {
		if err := writeFileWith(*flightOut, fr.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "dime: writing flight dump: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if srv != nil && code == 0 {
		fmt.Fprintf(stderr, "dime: debug server on http://%s (ctrl-c to exit)\n", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	return code
}

// cliArgs carries the parsed flags into the execution paths.
type cliArgs struct {
	preset, rulesFile, ontoFile string
	treeAttrs, pos, neg         []string
	level                       int
	basic, stats, why           bool
	learn                       string
	profile                     bool
	intraWorkers                int
	// reg is the Observer registry behind the run's probe (nil when no
	// metrics sink was requested); -stats reads its phase-latency quantiles.
	reg *obs.Registry
}

// writeFileWith creates path and streams dump into it.
func writeFileWith(path string, dump func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = dump(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// maxRuns is the number of root spans an invocation over groups can start:
// two rule-generation passes under -learn, a batch root plus one run per
// group for a corpus, and one run for a single group.
func maxRuns(groups []*entity.Group, learn string) int {
	switch {
	case learn != "":
		return 2
	case len(groups) > 1:
		return len(groups) + 1
	}
	return 1
}

// runInput dispatches to the profile / learn / corpus / single-group paths.
func runInput(stdout, stderr io.Writer, probe obs.Probe, groups []*entity.Group, c cliArgs) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dime: %v\n", err)
		return 1
	}
	if len(groups) > 1 && !c.profile && c.learn == "" {
		cfg, rs, err := resolveRules(groups[0], c.preset, c.rulesFile, c.ontoFile, c.treeAttrs, c.pos, c.neg)
		if err != nil {
			return fail(err)
		}
		opts := dime.Options{Config: cfg, Rules: rs, Probe: probe, IntraWorkers: c.intraWorkers}
		if err := runCorpus(stdout, groups, opts, c.stats, c.reg); err != nil {
			return fail(err)
		}
		return 0
	}
	g := *groups[0]

	if c.profile {
		if err := printProfile(stdout, &g); err != nil {
			return fail(err)
		}
		return 0
	}
	if c.learn != "" {
		if err := learnRules(stderr, &g, c.preset, c.learn, probe); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg, rs, err := resolveRules(&g, c.preset, c.rulesFile, c.ontoFile, c.treeAttrs, c.pos, c.neg)
	if err != nil {
		return fail(err)
	}

	opts := dime.Options{Config: cfg, Rules: rs, Probe: probe, IntraWorkers: c.intraWorkers}
	var res *dime.Result
	if c.basic {
		res, err = dime.DiscoverBasic(&g, opts)
	} else {
		res, err = dime.Discover(&g, opts)
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "group %q: %d entities, %d partitions, pivot size %d\n",
		g.Name, g.Size(), len(res.Partitions), res.PivotSize())
	for li, lv := range res.Levels {
		if c.level >= 0 && li != c.level {
			continue
		}
		fmt.Fprintf(stdout, "level %d (+%s): %d mis-categorized\n", li+1, lv.RuleName, len(lv.EntityIDs))
		for _, id := range lv.EntityIDs {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		if g.Truth != nil {
			fmt.Fprintf(stdout, "  score vs ground truth: %s\n",
				metrics.Score(lv.EntityIDs, g.MisCategorizedIDs()))
		}
	}
	if c.why {
		fmt.Fprintln(stdout, "witnesses:")
		for _, lv := range res.Levels[len(res.Levels)-1:] {
			for _, pi := range lv.PartitionIndexes {
				w, ok := res.WitnessOf(pi)
				if !ok {
					continue
				}
				if w.EntityID == "" {
					fmt.Fprintf(stdout, "  partition %d: every pair provably satisfies %s (signature filter)\n", pi, w.Rule)
				} else {
					fmt.Fprintf(stdout, "  partition %d: %s holds for (%s, pivot %s)\n", pi, w.Rule, w.EntityID, w.PivotID)
				}
			}
		}
	}
	if c.stats {
		fmt.Fprintf(stdout, "stats: %+v\n", res.Stats)
		printPhaseLatencies(stdout, c.reg)
	}
	return 0
}

// printPhaseLatencies renders the phase-latency histograms the Observer
// collected: one line per pipeline phase with the count and interpolated
// p50/p90/p99 (seconds). Nothing is printed without a registry or when no
// phase spans were observed.
func printPhaseLatencies(stdout io.Writer, reg *obs.Registry) {
	if reg == nil {
		return
	}
	header := false
	for _, s := range reg.HistogramSummaries() {
		phase, ok := strings.CutPrefix(s.Name, "dime.phase.")
		if !ok {
			continue
		}
		phase = strings.TrimSuffix(phase, ".seconds")
		if !header {
			fmt.Fprintln(stdout, "phase latency (s):")
			header = true
		}
		fmt.Fprintf(stdout, "  %-18s n=%d p50=%.3g p90=%.3g p99=%.3g\n",
			phase, s.Count, s.P50, s.P90, s.P99)
	}
}

// resolveRules picks the rule source: a -rules file (parsed against the
// preset's config when -preset is also given, so ontology predicates
// resolve), a preset's built-in rules, or ad-hoc -pos/-neg DSL flags.
func resolveRules(g *entity.Group, preset, rulesFile, ontoFile string, treeAttrs, pos, neg []string) (*rules.Config, rules.RuleSet, error) {
	if rulesFile != "" {
		var cfg *rules.Config
		switch preset {
		case "":
			cfg = rules.NewConfig(g.Schema)
		default:
			presetCfg, _, err := resolveRules(g, preset, "", "", nil, nil, nil)
			if err != nil {
				return nil, rules.RuleSet{}, err
			}
			cfg = presetCfg
		}
		if ontoFile != "" {
			data, err := os.ReadFile(ontoFile)
			if err != nil {
				return nil, rules.RuleSet{}, err
			}
			tree, err := ontology.LoadTree(data)
			if err != nil {
				return nil, rules.RuleSet{}, err
			}
			if len(treeAttrs) == 0 {
				return nil, rules.RuleSet{}, fmt.Errorf("dime: -ontology needs at least one -tree attribute")
			}
			for _, attr := range treeAttrs {
				cfg.WithTree(attr, tree)
			}
		}
		data, err := os.ReadFile(rulesFile)
		if err != nil {
			return nil, rules.RuleSet{}, err
		}
		rs, err := rules.LoadRuleSet(cfg, data)
		return cfg, rs, err
	}
	switch preset {
	case "scholar":
		cfg := presets.ScholarConfig()
		return cfg, presets.ScholarRules(cfg), nil
	case "amazon":
		// Without a trained topic model, use an oracle-free configuration:
		// regenerate a reference corpus to learn the description hierarchy
		// would need the corpus; here we use a corpus-independent true tree.
		corpus := datagen.Amazon(datagen.AmazonOptions{ProductsPerCategory: 1, Seed: 1})
		cfg := presets.AmazonConfig(corpus.TrueTree, corpus.TrueMapper())
		return cfg, presets.AmazonRules(cfg), nil
	case "dbgen":
		cfg := presets.DBGenConfig()
		return cfg, presets.DBGenRules(cfg), nil
	case "":
		if len(pos) == 0 || len(neg) == 0 {
			return nil, rules.RuleSet{}, fmt.Errorf("dime: provide -preset, or at least one -pos and one -neg rule")
		}
		cfg := rules.NewConfig(g.Schema)
		var rs rules.RuleSet
		for i, dsl := range pos {
			r, err := rules.Parse(cfg, fmt.Sprintf("pos%d", i+1), rules.Positive, dsl)
			if err != nil {
				return nil, rs, err
			}
			rs.Positive = append(rs.Positive, r)
		}
		for i, dsl := range neg {
			r, err := rules.Parse(cfg, fmt.Sprintf("neg%d", i+1), rules.Negative, dsl)
			if err != nil {
				return nil, rs, err
			}
			rs.Negative = append(rs.Negative, r)
		}
		return cfg, rs, nil
	default:
		return nil, rules.RuleSet{}, fmt.Errorf("dime: unknown preset %q", preset)
	}
}

// learnRules samples labelled pairs from the group's ground truth, runs the
// greedy rule generator (Section V of the paper), and writes the learned
// rule set as JSON. A preset supplies the record configuration (ontologies,
// token modes); without one a plain config over the group's schema is used.
func learnRules(stderr io.Writer, g *entity.Group, preset, outPath string, probe obs.Probe) error {
	if len(g.Truth) == 0 {
		return fmt.Errorf("dime: -learn needs a group with ground truth (the \"truth\" field)")
	}
	cfg, _, err := resolveRules(g, preset, "", "", nil, []string{"ov(" + g.Schema.Name(0) + ") >= 1"}, []string{"ov(" + g.Schema.Name(0) + ") = 0"})
	if err != nil {
		return err
	}
	recs, err := cfg.NewRecords(g)
	if err != nil {
		return err
	}
	var good, bad []*rules.Record
	for _, r := range recs {
		if g.Truth[r.Entity.ID] {
			bad = append(bad, r)
		} else {
			good = append(good, r)
		}
	}
	if len(good) < 2 || len(bad) == 0 {
		return fmt.Errorf("dime: need at least two correct and one mis-categorized entity to learn from")
	}
	var exs []rulegen.Example
	for i := 0; i < 250; i++ {
		exs = append(exs, rulegen.Example{A: good[(i*7)%len(good)], B: good[(i*13+1)%len(good)], Same: true})
	}
	for i := 0; i < 250; i++ {
		exs = append(exs, rulegen.Example{A: good[(i*11)%len(good)], B: bad[i%len(bad)], Same: false})
	}
	rs, err := rulegen.Generate(rulegen.Options{Config: cfg, MaxThresholds: 32, Probe: probe}, exs)
	if err != nil {
		return err
	}
	data, err := rules.MarshalRuleSet(rs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "learned %d positive and %d negative rules → %s\n",
		len(rs.Positive), len(rs.Negative), outPath)
	return nil
}

// printProfile renders the attribute profile of the group, ranked by
// separability when ground truth is available.
func printProfile(stdout io.Writer, g *entity.Group) error {
	profiles, err := analysis.Profile(g, analysis.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "group %q: %d entities, %d labelled mis-categorized\n\n",
		g.Name, g.Size(), len(g.MisCategorizedIDs()))
	fmt.Fprintf(stdout, "%-18s %8s %8s %8s %8s %9s %9s %6s\n",
		"Attribute", "Coverage", "Multi", "AvgVals", "AvgWords", "Distinct", "Separab.", "Mode")
	for _, p := range analysis.RankBySeparability(profiles) {
		mode := "elem"
		if p.SuggestedMode == rules.WordsMode {
			mode = "words"
		}
		sep := "    -"
		if !math.IsNaN(p.Separability) {
			sep = fmt.Sprintf("%+.3f", p.Separability)
		}
		fmt.Fprintf(stdout, "%-18s %8.2f %8.2f %8.1f %8.1f %9.2f %9s %6s\n",
			p.Name, p.Coverage, p.MultiValued, p.AvgValues, p.AvgWords, p.DistinctRatio, sep, mode)
	}
	fmt.Fprintln(stdout, "\nhigh-separability attributes are where positive and negative rules should look first")
	return nil
}

// runCorpus batch-processes a multi-group corpus with DiscoverAll and
// prints a per-group summary plus (when ground truth is present) the
// aggregate score of the deepest scrollbar level. With stats, the batch
// aggregate (summed work counters, wall time, workers) follows.
func runCorpus(stdout io.Writer, groups []*entity.Group, opts dime.Options, stats bool, reg *obs.Registry) error {
	results, bs, err := dime.DiscoverAllStats(groups, opts, 0)
	if err != nil {
		return err
	}
	var scores []metrics.PRF
	fmt.Fprintf(stdout, "%-24s %8s %8s %8s  %s\n", "Group", "Entities", "Pivot", "Flagged", "Score")
	for i, g := range groups {
		res := results[i]
		scoreStr := "-"
		if g.Truth != nil {
			s := metrics.Score(res.Final(), g.MisCategorizedIDs())
			scores = append(scores, s)
			scoreStr = s.String()
		}
		fmt.Fprintf(stdout, "%-24s %8d %8d %8d  %s\n", g.Name, g.Size(), res.PivotSize(), len(res.Final()), scoreStr)
	}
	if len(scores) > 0 {
		fmt.Fprintf(stdout, "\naggregate (deepest level, %d groups): %s\n", len(scores), metrics.Average(scores))
	}
	if stats {
		fmt.Fprintf(stdout, "\nbatch: %d groups, %d workers, wall %v\n", bs.Groups, bs.Workers, bs.Wall.Round(time.Millisecond))
		gl := bs.GroupLatency
		fmt.Fprintf(stdout, "group latency (s): n=%d p50=%.3g p90=%.3g p99=%.3g\n",
			gl.Count, gl.P50, gl.P90, gl.P99)
		fmt.Fprintf(stdout, "stats: %+v\n", bs.Stats)
		printPhaseLatencies(stdout, reg)
	}
	return nil
}

// loadGroups reads the input file as CSV (by extension) or as a JSON /
// JSON-lines corpus.
func loadGroups(path, csvID, csvSep string) ([]*entity.Group, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		g, err := entity.ReadGroupCSV(f, name, csvID, csvSep)
		if err != nil {
			return nil, err
		}
		return []*entity.Group{g}, nil
	}
	return entity.ReadGroups(f)
}
