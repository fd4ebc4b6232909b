// Package piileak reproduces the CoNEXT 2021 study "Alternative to
// third-party cookies: Investigating persistent PII leakage-based web
// tracking" (Dao & Fukuda) as a runnable system: a calibrated synthetic
// web of shopping sites and trackers, the §3.2 crawl, the §4 leak
// detection pipeline, the §5 persistent-tracking classification, the §6
// policy audit and the §7 countermeasure evaluations.
//
// Quick start:
//
//	study, err := piileak.NewStudy(piileak.DefaultConfig())
//	if err != nil { ... }
//	if err := study.Run(context.Background()); err != nil { ... }
//	fmt.Println(report of study.Analysis.Headline())
//
// Run takes functional options: WithStream() releases captures after
// detection, WithWorkers(4, 4) parallelizes both stages,
// WithCheckpoint(path) makes the run resumable, and WithObserver(run)
// attaches an obs.Run that collects deterministic metrics and stage
// traces without changing a single output byte.
//
// Every experiment from the paper's evaluation is registered in
// Experiments(); cmd/piirepro runs them all.
package piileak

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/policy"
	"piileak/internal/resilience"
	"piileak/internal/shard"
	"piileak/internal/site"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Config configures a study run.
type Config struct {
	// Ecosystem parameterizes the synthetic web (webgen.DefaultConfig
	// reproduces the paper's population).
	Ecosystem webgen.Config
	// CandidateDepth is the transform-chain depth of the detection
	// candidate set (§3.1; default 2, covering every chain in the
	// paper's Table 2).
	CandidateDepth int
	// Browser is the collection profile (§3.2 used vanilla Firefox 88).
	Browser browser.Profile
	// Workers > 0 crawls with that many parallel workers (results are
	// identical to the serial crawl); 0 keeps the serial crawler.
	Workers int
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		Ecosystem:      webgen.DefaultConfig(),
		CandidateDepth: 2,
		Browser:        browser.Firefox88(),
	}
}

// SmallConfig is a scaled-down configuration for examples and quick
// experimentation.
func SmallConfig(seed uint64) Config {
	return Config{
		Ecosystem:      webgen.SmallConfig(seed),
		CandidateDepth: 2,
		Browser:        browser.Firefox88(),
	}
}

// Study is one full reproduction run.
type Study struct {
	Config Config

	// Eco is the generated synthetic web.
	Eco *webgen.Ecosystem
	// Engine is the compiled two-phase detection engine: the immutable,
	// shareable phase-1 state (candidate automaton, PSL, CNAME
	// classifier) every run mode and detect worker scans through. It
	// comes out of the process-wide build cache, so studies sharing a
	// persona and candidate config share one compile.
	Engine *detect.Engine
	// Candidates is the persona's compiled token set (the Engine's).
	Candidates *pii.CandidateSet

	// Dataset, Leaks and Analysis are populated by Run (or RunSharded).
	Dataset  *crawler.Dataset
	Leaks    []core.Leak
	Analysis *core.Analysis

	// Result is the shared store both run modes populate: the §4.2
	// analysis, the incremental §5 tracking index, the §6 audit sender
	// set and the §7.2 request index, all built in one pass. Tracking,
	// PolicyAudit and EvaluateBlocklists are views over it.
	Result *pipeline.Result
	// Streamed marks a study run WithStream (or sharded) whose captures
	// were released after detection; experiments needing raw records
	// refuse to run.
	Streamed bool
}

// NewStudy generates the ecosystem and builds the detection machinery.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.CandidateDepth == 0 {
		cfg.CandidateDepth = 2
	}
	if cfg.Browser.Name == "" {
		cfg.Browser = browser.Firefox88()
	}
	eco, err := webgen.Generate(cfg.Ecosystem)
	if err != nil {
		return nil, err
	}
	cname := dnssim.NewClassifier(eco.Zone)
	eng, err := detect.NewEngine(eco.Persona, cname, detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: cfg.CandidateDepth},
	})
	if err != nil {
		return nil, err
	}
	return &Study{
		Config:     cfg,
		Eco:        eco,
		Engine:     eng,
		Candidates: eng.Candidates(),
	}, nil
}

// RunOption configures one Study.Run call. Options apply in order over
// the study's defaults (Config.Workers for both stages, batch mode with
// full captures, no checkpoint, no observer).
type RunOption func(*runConfig)

// runConfig is the resolved option set a Run call executes under.
type runConfig struct {
	opts     pipeline.Options
	stream   bool
	universe int
}

// defaultRunConfig seeds the option set from the study's Config: both
// stages at Config.Workers, batch (KeepRecords) mode.
func (s *Study) defaultRunConfig() runConfig {
	var rc runConfig
	rc.opts.Workers = s.Config.Workers
	rc.opts.DetectWorkers = s.Config.Workers
	return rc
}

// WithStream releases per-site captures right after detection: peak
// memory stays bounded by the in-flight worker count, the assembled
// Dataset is thin (crawl outcomes, mailbox and block counters survive,
// Records do not), and the study is marked Streamed so experiments
// needing raw captures refuse to run. Leaks, analysis and every table
// are byte-identical to a batch run's.
func WithStream() RunOption {
	return func(rc *runConfig) { rc.stream = true }
}

// WithWorkers sets the crawl and detect stages' parallelism. Values <= 1
// run the stage serially; results are byte-identical at any setting.
func WithWorkers(crawl, detect int) RunOption {
	return func(rc *runConfig) {
		rc.opts.Workers = crawl
		rc.opts.DetectWorkers = detect
	}
}

// WithCheckpoint persists per-site progress to path so an interrupted
// run can continue with WithResume.
func WithCheckpoint(path string) RunOption {
	return func(rc *runConfig) { rc.opts.CheckpointPath = path }
}

// WithResume loads completed sites from the WithCheckpoint file instead
// of re-crawling them. onResume, when non-nil, receives the loaded
// checkpoint's summary before crawling begins.
func WithResume(onResume func(crawler.ResumeSummary)) RunOption {
	return func(rc *runConfig) {
		rc.opts.Resume = true
		rc.opts.OnResume = onResume
	}
}

// WithObserver attaches a telemetry run: deterministic metrics, stage
// spans and the run manifest (internal/obs). Observation is a side
// channel — leak output and every table stay byte-identical with it on
// or off.
func WithObserver(o *obs.Run) RunOption {
	return func(rc *runConfig) { rc.opts.Obs = o }
}

// WithSiteTimeout caps each site's crawl budget on the run's clock
// (virtual under fault injection); sites over budget are recorded as
// OutcomeTimeout with their partial captures.
func WithSiteTimeout(d time.Duration) RunOption {
	return func(rc *runConfig) { rc.opts.SiteTimeout = d }
}

// WithQuarantine collects diagnostics bundles for sites whose crawl or
// detection panicked; the study continues without them.
func WithQuarantine(q *crawler.Quarantine) RunOption {
	return func(rc *runConfig) { rc.opts.Quarantine = q }
}

// WithSource supplies the run's site population lazily: sites
// materialize one at a time as the crawl reaches them, so peak site
// memory is bounded by the captures in flight, not the population's
// length.
func WithSource(src site.Source) RunOption {
	return func(rc *runConfig) { rc.opts.Source = src }
}

// WithUniverse extends the study core with a lazily generated ranked
// tail to n total sites for this run — the paper-exact head stays
// byte-identical, and tail site i is derived on demand from
// (seed, rank). n == 0 keeps the configured scale; n smaller than the
// study core is an error.
func WithUniverse(n int) RunOption {
	return func(rc *runConfig) { rc.universe = n }
}

// WithRetryPolicy tunes the resilient transport's retry/backoff/breaker
// behaviour; zero fields take resilience.DefaultPolicy values.
func WithRetryPolicy(p resilience.Policy) RunOption {
	return func(rc *runConfig) { rc.opts.Policy = p }
}

// Event is one progress tick from a pipeline stage, re-exported so
// WithProgress callers outside this module's internals can name it.
type Event = pipeline.Event

// WithProgress receives per-stage completion events; it is never called
// concurrently.
func WithProgress(fn func(Event)) RunOption {
	return func(rc *runConfig) { rc.opts.Progress = fn }
}

// Run executes the §3.2 crawl and the §4 detection over every candidate
// site, populating Dataset, Leaks, Analysis and the shared Result
// store. The default is batch-compatible: the fused pipeline runs with
// full captures kept, so the dataset is byte-identical to a batch
// crawl. Options select streaming, parallelism, checkpointing,
// observation and the crash-only runtime's knobs; contradictory
// combinations are rejected up front (pipeline.Options.Validate).
// Cancelling ctx stops the crawl between sites and surfaces ctx's
// error.
func (s *Study) Run(ctx context.Context, options ...RunOption) error {
	rc := s.defaultRunConfig()
	for _, opt := range options {
		if opt != nil {
			opt(&rc)
		}
	}
	if rc.universe != 0 {
		if rc.opts.Source != nil {
			return fmt.Errorf("piileak: WithUniverse and WithSource are both set — pick one site supply")
		}
		u, err := s.Eco.UniverseOf(rc.universe)
		if err != nil {
			return err
		}
		rc.opts.Source = u
	}
	rc.opts.KeepRecords = !rc.stream
	return s.runPipeline(ctx, rc.opts)
}

// RunSharded executes the study as a supervised sharded run: the site
// universe is partitioned into opts.Shards rank-interleaved failure
// domains, each crawled by an independently-checkpointed worker under
// restart supervision, and the per-shard outputs are digest-verified
// and merged back into the study. With every shard completing, Leaks,
// Analysis and every table are byte-identical to an unsharded streamed
// run; when a shard exhausts its retry budget the study holds the
// partial merge and the returned report lists exactly what is missing
// (Report.Partial, Report.Missing). The study is always marked
// Streamed — shard workers release captures after detection.
func (s *Study) RunSharded(ctx context.Context, opts shard.Options) (*shard.Report, error) {
	s.stampRun(opts.Obs, obs.RunInfo{
		Sites:         s.Eco.Universe().Len(),
		CrawlWorkers:  opts.Workers,
		DetectWorkers: opts.DetectWorkers,
		Streamed:      true,
		Shards:        opts.Shards,
	})
	res, report, err := shard.Supervise(ctx, s.Eco, s.Config.Browser, s.Engine, opts)
	if err != nil {
		return nil, err
	}
	s.Result = res
	s.Dataset = res.Dataset
	s.Leaks = res.Leaks
	s.Analysis = res.Analysis
	s.Streamed = true
	return report, nil
}

// runPipeline is Run's execution path: validate, stamp the observer's run manifest, run the fused
// pipeline, populate the study.
func (s *Study) runPipeline(ctx context.Context, opts pipeline.Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	src := opts.Source
	if src == nil {
		src = s.Eco.Universe()
	}
	s.stampRun(opts.Obs, obs.RunInfo{
		Sites:         src.Len(),
		CrawlWorkers:  opts.Workers,
		DetectWorkers: opts.DetectWorkers,
		Streamed:      !opts.KeepRecords,
	})
	res, err := pipeline.Run(ctx, s.Eco, s.Config.Browser, s.Engine, opts)
	if err != nil {
		return err
	}
	s.Result = res
	s.Dataset = res.Dataset
	s.Leaks = res.Leaks
	s.Analysis = res.Analysis
	s.Streamed = !opts.KeepRecords
	return nil
}

// stampRun records a run's manifest on the observer: the study's
// identity (ecosystem seed, browser, fault seed) completed onto the
// caller's run shape. A nil observer records nothing.
func (s *Study) stampRun(o *obs.Run, info obs.RunInfo) {
	if o == nil {
		return
	}
	info.EcoSeed = s.Eco.Config.Seed
	info.Browser = s.Config.Browser.Name + " " + s.Config.Browser.Version
	info.FaultSeed = s.Eco.Faults.Seed()
	o.SetInfo(info)
}

// TotalRecords reports the captured request count, served from the
// result store so streamed runs report the true pre-release total.
func (s *Study) TotalRecords() int {
	if s.Result != nil {
		return s.Result.TotalRecords
	}
	if s.Dataset != nil {
		return s.Dataset.TotalRecords()
	}
	return 0
}

// mustRun guards accessors that need Run's outputs.
func (s *Study) mustRun() error {
	if s.Analysis == nil {
		return fmt.Errorf("piileak: Run the study first")
	}
	return nil
}

// Tracking runs the §5.2 persistent-tracking classification, served
// from the result store's incremental index. Studies populated outside
// Run (loaded datasets, hand-built fixtures) fall back to a batch
// classification of Leaks.
func (s *Study) Tracking() (*tracking.Classification, error) {
	if err := s.mustRun(); err != nil {
		return nil, err
	}
	if s.Result != nil {
		return s.Result.Tracking.Classification(), nil
	}
	return tracking.Classify(s.Leaks), nil
}

// PolicyAudit runs the §6 disclosure audit over the detected senders,
// taken from the result store's accumulated sender set.
func (s *Study) PolicyAudit() (policy.Table3, error) {
	if err := s.mustRun(); err != nil {
		return policy.Table3{}, err
	}
	senders := s.senderSet()
	var out []*site.Site
	for _, st := range s.Eco.Sites {
		if senders[st.Domain] {
			out = append(out, st)
		}
	}
	return policy.Audit(out), nil
}

// senderSet returns the distinct leaking first parties.
func (s *Study) senderSet() map[string]bool {
	if s.Result != nil {
		return s.Result.Senders
	}
	senders := map[string]bool{}
	for _, l := range s.Leaks {
		senders[l.Site] = true
	}
	return senders
}

// EvaluateBrowsers runs the §7.1 browser comparison. It is
// intentionally not mustRun-guarded: the evaluation re-crawls the
// ecosystem's sender sites per browser profile itself, so it depends
// only on the generated ecosystem, never on this study's crawl, leaks
// or analysis — calling it before Run is valid and produces the same
// result as calling it after.
func (s *Study) EvaluateBrowsers() []countermeasure.BrowserResult {
	return countermeasure.EvaluateBrowsers(s.Eco, s.Config.Browser, countermeasure.Profiles(s.Eco))
}

// EvaluateBlocklists runs the §7.2 filter-list evaluation.
func (s *Study) EvaluateBlocklists() (*countermeasure.Table4, error) {
	if err := s.mustRun(); err != nil {
		return nil, err
	}
	lists, err := countermeasure.ParseLists(s.Eco.EasyListText, s.Eco.EasyPrivacyText)
	if err != nil {
		return nil, err
	}
	cls, err := s.Tracking()
	if err != nil {
		return nil, err
	}
	var trackers []string
	for _, tr := range cls.Trackers {
		trackers = append(trackers, tr.Receiver)
	}
	if s.Result != nil {
		// The store's request index covers every leaky site — the only
		// sites whose initiator chains the evaluation walks — so the
		// indexed path reproduces the full-dataset result exactly, with
		// or without retained captures.
		return countermeasure.EvaluateBlocklistsIndexed(s.Leaks, s.Result.Requests, lists, trackers), nil
	}
	return countermeasure.EvaluateBlocklists(s.Leaks, s.Dataset, lists, trackers), nil
}

// requireCaptures guards experiments that rescan raw captured records:
// a streamed study released them after detection.
func (s *Study) requireCaptures(id string) error {
	if s.Streamed {
		return fmt.Errorf("%s: needs raw captures, but the study ran in streamed mode (records were released after detection); re-run without -stream", id)
	}
	return nil
}

// WriteLeaksJSON exports the detected leak records as indented JSON for
// external analysis (spreadsheets, notebooks, diffing runs).
func (s *Study) WriteLeaksJSON(w io.Writer) error {
	if err := s.mustRun(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s.Leaks)
}
