// Package pipeline fuses the study's crawl and detection stages into
// one streaming pass. Crawl workers emit per-site captures into a
// bounded channel; detect workers scan each capture as it arrives and
// release the records immediately afterwards (keeping only the reduced
// request index the §7.2 blocklist evaluation needs), then hand the
// site's SiteOut to the study's one Fold under the single lock that
// owns it. The Fold folds the leaks into the shared Result store — the
// §4.2 analysis indexes, the §5 tracking index and the §6 policy-audit
// sender set — in one pass. The sharded runtime's merge runs the same
// Fold over the shards' SiteOuts. Peak memory is bounded by the number
// of captures in flight (crawl workers + channel buffer + detect
// workers) instead of the whole crawl.
//
// Determinism: the Fold parks each SiteOut in its site-index slot and
// assembles leaks and dataset in site order at the end, detection runs
// only on successful crawls (exactly the batch path's Successes loop),
// and every accumulated aggregate is a set — so batch, streamed-serial,
// streamed-parallel, checkpoint-resumed and sharded runs produce
// byte-identical leak output and identical table numbers regardless of
// completion order.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/httpmodel"
	"piileak/internal/mailbox"
	"piileak/internal/obs"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// Detector is what the detection stage needs from a scanner. The
// production implementation is *detect.Engine (each detect worker
// derives a private Scanner from it); tests substitute the differential
// oracle or misbehaving detectors to exercise the crash-only path.
type Detector interface {
	DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak
}

// Options configures a streamed study run. The embedded crawler.Options
// is the single source of truth for the crawl stage — its Workers field
// IS the crawl parallelism (<= 1 crawls serially with one browser), its
// Obs field is the run's observer, and its site-source / checkpoint /
// watchdog knobs apply unchanged. There is no separate
// CrawlWorkers override anymore; Validate rejects contradictions
// instead of silently preferring one side.
type Options struct {
	crawler.Options

	// DetectWorkers sets the detection stage's parallelism; <= 0 means
	// one worker.
	DetectWorkers int
	// KeepRecords retains full captures in the assembled dataset (the
	// batch-compatible mode Study.Run uses). When false, records are
	// released after detection and the dataset is thin.
	KeepRecords bool
	// Progress, when set, receives per-stage completion events. It is
	// never called concurrently.
	Progress func(Event)
	// Sink, when set, receives every site's SiteOut in site order,
	// after accumulation finishes. It is the shard runtime's extraction
	// point: a shard worker writes the SiteOuts to its result file for
	// the verified merge. Never called concurrently.
	Sink func(SiteOut)
}

// captureBuffer is the capacity of the crawl→detect channel. With the
// worker counts it bounds the captures in flight: crawl workers +
// captureBuffer + detect workers.
// Two lets a finished crawl hand off while every detect worker is
// busy, without letting captures pile up.
const captureBuffer = 2

// Validate rejects contradictory or nonsensical settings, delegating
// the crawl-level checks to the embedded crawler.Options.
func (o Options) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.Workers < 0 {
		return fmt.Errorf("pipeline: negative crawl Workers %d", o.Workers)
	}
	if o.DetectWorkers < 0 {
		return fmt.Errorf("pipeline: negative DetectWorkers %d", o.DetectWorkers)
	}
	return nil
}

// Event is one progress tick from a pipeline stage.
type Event struct {
	// Stage is "crawl" or "detect".
	Stage string
	// Done counts completed sites in the stage, out of Total.
	Done, Total int
	// Site is the domain that just completed.
	Site string
	// Outcome is the site's crawl outcome (crawl events only) — the
	// funnel bucket progress consumers surface without waiting for the
	// assembled dataset.
	Outcome string
	// Leaks is the cumulative leak count (detect events only).
	Leaks int
}

// SiteOut is one site's complete pipeline output: the (possibly
// thinned) crawl record with its mail and shield-block side effects,
// the pre-release record count, the detected leaks, and the reduced
// request list (leaky sites only). It travels from detection to the
// Fold, reaches Options.Sink, and is the shard result file's line
// format, so its fields, their order and their JSON tags are an
// on-disk format. Index is the site's index in the run's site list —
// the global ranked index in a shard result file.
type SiteOut struct {
	Index    int                        `json:"index"`
	Crawl    crawler.SiteCrawl          `json:"crawl"`
	Mail     []mailbox.Message          `json:"mail,omitempty"`
	Blocked  map[string]int             `json:"blocked,omitempty"`
	Records  int                        `json:"records,omitempty"`
	Leaks    []core.Leak                `json:"leaks,omitempty"`
	Requests []httpmodel.IndexedRequest `json:"requests,omitempty"`
}

// released reports whether the site's records were dropped after
// detection: it captured some, and the crawl record no longer holds
// them.
func (s *SiteOut) released() bool {
	return s.Records > 0 && len(s.Crawl.Records) == 0
}

// Stats carries a finished run's counters.
type Stats struct {
	// Sites is the crawled-site count; Successes the auth-flow
	// completions (the analysis denominator).
	Sites, Successes int
	// Leaks is the total detected leak count.
	Leaks int
	// CaptureHighWater is the maximum number of record-bearing captures
	// simultaneously in flight — the pipeline's memory bound. Zero when
	// KeepRecords kept every capture alive, and in a shard merge.
	CaptureHighWater int
	// Released counts sites whose records were dropped after detection:
	// sites that captured records and no longer hold them.
	Released int
}

// Result is the shared study store every downstream view reads from:
// §4.2 analysis, §5 tracking classification, §6 audit senders and the
// §7.2 request index all come out of the same single-pass accumulation.
type Result struct {
	// Leaks is the full leak list in site order — byte-identical to the
	// batch detection loop's output.
	Leaks []core.Leak
	// Analysis is the finalized §4.2 aggregate view.
	Analysis *core.Analysis
	// Tracking is the incremental §5 index; call Classification() for
	// the Table 2 census.
	Tracking *tracking.Index
	// Senders is the distinct leaking first parties — the §6 policy
	// audit population.
	Senders map[string]bool
	// Requests is the reduced per-site request index (leaky sites only)
	// for the §7.2 blocklist evaluation.
	Requests *httpmodel.RequestIndex
	// Dataset is the assembled crawl dataset: full captures under
	// KeepRecords, thin (records released) otherwise.
	Dataset *crawler.Dataset
	// TotalRecords counts captured requests across all sites, counted
	// before any release.
	TotalRecords int
	// Stats carries the run counters.
	Stats Stats
}

// Fold is the study's accumulate stage: the one place per-site outputs
// become the shared Result store. Add takes sites in any order —
// completion order in the pipeline, shard by shard in the merge —
// folding each site's leaks into the §4.2 accumulator, the §5 tracking
// index, the §6 sender set and the §7.2 request index as it arrives,
// and parking the SiteOut in its site-index slot. Result then walks the
// slots in site order to assemble the leak list and the dataset, so
// the output is independent of arrival order. A Fold is not safe for
// concurrent use.
type Fold struct {
	eco     *webgen.Ecosystem
	profile browser.Profile
	slots   []SiteOut // by site index; an empty Crawl.Domain is an unfilled slot
	acc     *core.Accumulator
	trk     *tracking.Index
	reqs    *httpmodel.RequestIndex
	records int
	stats   Stats
}

// NewFold returns an empty fold over a population of sites sites.
func NewFold(eco *webgen.Ecosystem, profile browser.Profile, sites int) *Fold {
	return &Fold{
		eco:     eco,
		profile: profile,
		slots:   make([]SiteOut, sites),
		acc:     core.NewAccumulator(),
		trk:     tracking.NewIndex(),
		reqs:    httpmodel.NewRequestIndex(),
	}
}

// Add folds one site into the aggregates and parks it in slot
// out.Index. Each index must be added at most once.
func (f *Fold) Add(out SiteOut) {
	f.slots[out.Index] = out
	for i := range out.Leaks {
		l := &out.Leaks[i]
		f.acc.Add(l)
		f.trk.Add(l)
	}
	if out.Requests != nil {
		f.reqs.AddReduced(out.Crawl.Domain, out.Requests)
	}
	if out.Crawl.Outcome == crawler.OutcomeSuccess {
		f.acc.AddSites(1)
		f.stats.Successes++
	}
	if out.released() {
		f.stats.Released++
	}
	f.records += out.Records
	f.stats.Sites++
	f.stats.Leaks += len(out.Leaks)
}

// Result assembles the study store from the sites added so far, in
// site order; unfilled slots are skipped. The Result holds no reference
// to the slot array, so dropping the Fold frees it.
func (f *Fold) Result() *Result {
	ds := crawler.NewDataset(f.eco, f.profile)
	var leaks []core.Leak
	if f.stats.Sites > 0 {
		ds.Crawls = make([]crawler.SiteCrawl, 0, f.stats.Sites)
	}
	if f.stats.Leaks > 0 {
		leaks = make([]core.Leak, 0, f.stats.Leaks)
	}
	for i := range f.slots {
		out := &f.slots[i]
		if out.Crawl.Domain == "" {
			continue
		}
		ds.Merge(crawler.SiteResult{Index: out.Index, Crawl: out.Crawl, Mail: out.Mail, Blocked: out.Blocked})
		leaks = append(leaks, out.Leaks...)
	}
	return &Result{
		Leaks:        leaks,
		Analysis:     f.acc.Finalize(leaks),
		Tracking:     f.trk,
		Senders:      f.acc.SenderSet(),
		Requests:     f.reqs,
		Dataset:      ds,
		TotalRecords: f.records,
		Stats:        f.stats,
	}
}

// detectGuarded runs detection on one capture with panic isolation: a
// detector that blows up on a poison site loses that site (recorded as
// OutcomeCrashed and quarantined with its stack), not the study.
func detectGuarded(det Detector, out *SiteOut, eco *webgen.Ecosystem, copts crawler.Options) {
	defer func() {
		if r := recover(); r != nil {
			out.Leaks = nil
			out.Crawl.Outcome = crawler.OutcomeCrashed
			copts.Quarantine.Add(crawler.BundleFor(crawler.StageDetect, &out.Crawl, eco.Config.Seed, eco.Faults.Seed(), r))
			copts.Obs.CountKind(obs.MetricQuarantined, crawler.StageDetect, 1)
		}
	}()
	out.Leaks = det.DetectSite(out.Crawl.Domain, out.Crawl.Records)
}

// Run executes the fused crawl+detect+accumulate pipeline and returns
// the shared result store. The crawl runs on the calling goroutine (its
// workers, when Workers > 1, on their own); detect workers fold their
// sites as they finish. Cancelling ctx stops the crawl stage (the
// site in flight is discarded, exactly as in crawler.CrawlStream); the
// detect workers drain what was already captured before
// Run returns ctx's error, so a checkpointed run is left resumable. A
// panicking detector does not kill the run: the site is marked
// OutcomeCrashed, quarantined (opts.Quarantine), and skipped. opts.Obs
// observes every stage; a nil observer costs nothing.
func Run(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, det Detector, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	src := opts.Source
	if src == nil {
		src = eco.Universe()
	}
	total := src.Len()
	o := opts.Obs

	detectWorkers := opts.DetectWorkers
	if detectWorkers <= 0 {
		detectWorkers = 1
	}

	var (
		progressMu sync.Mutex
		crawled    atomic.Int64
	)
	emitEvent := func(ev Event) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		opts.Progress(ev)
		progressMu.Unlock()
	}

	var g obs.Watermark
	captures := make(chan crawler.SiteResult, captureBuffer)
	copts := opts.Options
	copts.Source = src

	// Accumulate: each detect worker folds its finished site under the
	// one lock that owns the fold, in completion order.
	var foldMu sync.Mutex
	fold := NewFold(eco, profile, total)
	accumulate := func(out SiteOut) {
		foldMu.Lock()
		defer foldMu.Unlock()
		ap := o.StartSpan(obs.StageAccumulate, out.Crawl.Domain, out.Index)
		fold.Add(out)
		if out.released() {
			o.Count(obs.MetricReleased, 1)
		}
		o.Count(obs.MetricDetectSites, 1)
		o.Count(obs.MetricDetectLeaks, int64(len(out.Leaks)))
		o.Observe(obs.HistSiteLeaks, int64(len(out.Leaks)))
		ap.SetN(len(out.Leaks))
		ap.End()
		emitEvent(Event{Stage: "detect", Done: fold.stats.Sites, Total: total, Site: out.Crawl.Domain, Leaks: fold.stats.Leaks})
	}

	// Detect: each worker scans a capture's records and then releases
	// them (unless KeepRecords), reducing leaky sites to the request
	// index first.
	var wg sync.WaitGroup
	for w := 0; w < detectWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An Engine detector is shared compile-time state; each
			// worker scans through its own Scanner so the per-record
			// scratch (match buffers, decode buffers, receiver memo) is
			// never contended.
			wdet := det
			if eng, ok := det.(*detect.Engine); ok {
				wdet = eng.NewScanner()
			}
			for r := range captures {
				sp := o.StartSpan(obs.StageDetect, r.Crawl.Domain, r.Index)
				out := SiteOut{Index: r.Index, Crawl: r.Crawl, Mail: r.Mail, Blocked: r.Blocked, Records: len(r.Crawl.Records)}
				if r.Crawl.Outcome == crawler.OutcomeSuccess {
					detectGuarded(wdet, &out, eco, copts)
				}
				if len(out.Leaks) > 0 {
					out.Requests = httpmodel.ReduceRecords(r.Crawl.Records)
				}
				if !opts.KeepRecords {
					out.Crawl.Records = nil
				}
				g.Dec()
				sp.SetN(len(out.Leaks))
				sp.End()
				accumulate(out)
			}
		}()
	}

	// Crawl, on this goroutine. Emissions block on the captures
	// channel, which is the backpressure that bounds the pipeline's
	// in-flight state. The crawl gets the resolved source so it and the
	// fold agree on the population.
	crawlErr := crawler.CrawlStream(ctx, eco, profile, copts, func(r crawler.SiteResult) error {
		g.Inc()
		captures <- r
		if opts.Progress != nil {
			emitEvent(Event{Stage: "crawl", Done: int(crawled.Add(1)), Total: total, Site: r.Crawl.Domain, Outcome: string(r.Crawl.Outcome)})
		}
		return nil
	})
	close(captures)
	wg.Wait()
	if crawlErr != nil {
		return nil, crawlErr
	}

	if opts.Sink != nil {
		// Site order, like every other deterministic output — the sink
		// sees the run exactly as the dataset records it, regardless of
		// the order sites completed in.
		for i := range fold.slots {
			opts.Sink(fold.slots[i])
		}
	}
	res := fold.Result()
	if !opts.KeepRecords {
		// Streamed runs export the memory bound. It is the registry's one
		// scheduler-dependent value (a bound, not an exact replay) in
		// parallel runs, so batch mode omits it entirely. Ratcheted, not
		// set: a sharded study's workers share one observer, and the
		// study-wide bound is the worst shard's.
		res.Stats.CaptureHighWater = int(g.High())
		o.GaugeMax(obs.MetricCaptureHighWater, g.High())
	}
	return res, nil
}
