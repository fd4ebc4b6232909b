package crawler

import (
	"context"
	"sync"
	"sync/atomic"

	"piileak/internal/browser"
	"piileak/internal/mailbox"
	"piileak/internal/obs"
	"piileak/internal/resilience"
	"piileak/internal/webgen"
)

// This file is the streaming crawl engine: one site-at-a-time emission
// loop, CrawlStream, that the batch entry point Run is built on. Run
// collects emissions into a Dataset; the streaming study pipeline
// instead forwards each emission straight into detection so captures
// never pile up.

// SiteResult is one completed site crawl: the crawl record plus the
// mail and shield-block side effects that must travel with it, and the
// site's index in the crawl order so downstream consumers can
// reassemble deterministic output regardless of the order completions
// arrive in. It is also the checkpoint's line format; Index is not
// written, since a resumed run re-derives it from the site order.
type SiteResult struct {
	Index   int               `json:"-"`
	Crawl   SiteCrawl         `json:"crawl"`
	Mail    []mailbox.Message `json:"mail,omitempty"`
	Blocked map[string]int    `json:"blocked,omitempty"`
}

// CrawlStream runs the crawl and hands each completed site to emit
// instead of assembling a Dataset. With Workers <= 1 the crawl is
// serial — one browser, Source.At and emit on the calling goroutine —
// and emissions arrive in site order; with more workers, emit is
// called from the worker goroutines in completion order and must be
// safe for concurrent use. A blocking emit exerts backpressure: the
// worker holds its finished site until emit returns, so a bounded
// consumer bounds the number of captures in flight. An emit error stops
// the crawl. Sites already in the checkpoint are emitted without
// re-crawling by the worker that claims them.
//
// The site population comes from Options.Source (or the ecosystem's
// universe). Each worker claims the next unclaimed index from one
// shared counter and materializes that site itself (Source.At is safe
// for concurrent use), so every index is materialized exactly once and
// peak site memory is one site per worker, never the source's length.
// The materialization count lands in the universe-materialized gauge:
// for a shard worker over a lazy universe it reads the shard's size.
//
// Cancellation is crash-only: a done ctx stops each worker before its
// next site with ctx's error, and a site mid-crawl when cancellation
// lands is dropped on the floor, never checkpointed or emitted — the
// checkpoint then holds exactly a prefix of the uninterrupted run,
// which is what makes resume byte-identical.
func CrawlStream(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options, emit func(SiteResult) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	src := opts.source(eco)
	n := src.Len()
	o := opts.Obs

	var ckpt *Checkpoint
	if opts.CheckpointPath != "" {
		var err error
		ckpt, err = OpenCheckpoint(opts.CheckpointPath, eco, profile, opts.Resume, opts.ShardLabel())
		if err != nil {
			return err
		}
		defer ckpt.Close()
		if opts.Resume {
			o.Count(obs.MetricCheckpointTorn, int64(ckpt.TornRecords()))
			if opts.OnResume != nil {
				opts.OnResume(ResumeSummary{Completed: ckpt.Done(), TornRecords: ckpt.TornRecords()})
			}
		}
	}

	// next is the next unclaimed site index. A worker claims only after
	// checking that the run goes on, so every claimed index below n is
	// materialized and the gauge is min(next, n).
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	defer func() { o.GaugeMax(obs.MetricUniverseMaterialized, min(next.Load(), int64(n))) }()

	// crawlSites is the per-site loop every worker runs: claim, At,
	// checkpoint lookup, crawl, Append, note, emit, Reset. It returns nil
	// when the source is exhausted or another worker failed.
	crawlSites := func() error {
		b := browser.New(profile, eco.Zone)
		b.Ctx = ctx
		b.Obs = o
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if failed.Load() {
				return nil
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return nil
			}
			s := src.At(i)
			if e, ok := ckpt.lookup(s.Domain); ok {
				e.Index = i
				noteResumedSite(o, &e)
				if err := emit(e); err != nil {
					return err
				}
				continue
			}
			sp := o.StartSpan(obs.StageCrawl, s.Domain, i)
			rt := newFaultTransport(ctx, eco, opts)
			e := siteResultFor(b, eco, s, rt, opts.Quarantine)
			e.Index = i
			if err := ctx.Err(); err != nil {
				// Cancelled mid-site: the entry is abandoned so the
				// checkpoint stays a clean prefix.
				return err
			}
			if ckpt != nil {
				if err := ckpt.Append(e); err != nil {
					return err
				}
				o.Count(obs.MetricCheckpointAppends, 1)
			}
			noteCrawledSite(o, sp, rt, &e)
			if err := emit(e); err != nil {
				return err
			}
			b.Reset()
		}
	}

	var err error
	if workers := min(opts.Workers, n); workers <= 1 {
		err = crawlSites()
	} else {
		var (
			wg      sync.WaitGroup
			errOnce sync.Once
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if werr := crawlSites(); werr != nil {
					errOnce.Do(func() { err = werr })
					failed.Store(true)
				}
			}()
		}
		wg.Wait()
	}
	if err != nil {
		return err
	}
	if ckpt != nil {
		return ckpt.Close()
	}
	return nil
}

// noteCrawledSite closes a site's crawl span and folds its outcome into
// the counters. rt's virtual clock, when the site ran under faults,
// supplies the span's deterministic simulated duration.
func noteCrawledSite(o *obs.Run, sp *obs.Span, rt *faultTransport, e *SiteResult) {
	if o == nil {
		return
	}
	if rt != nil {
		if vc, ok := rt.exec.Clock.(*resilience.VirtualClock); ok {
			elapsed := vc.Elapsed()
			sp.AddDuration(elapsed)
			o.Observe(obs.HistSiteVirtualMS, elapsed.Milliseconds())
		}
	}
	sp.SetN(len(e.Crawl.Records))
	sp.SetOutcome(string(e.Crawl.Outcome))
	sp.End()
	noteSiteCounters(o, e)
}

// noteResumedSite counts a checkpoint-loaded site: it contributes to
// the run's totals like any other, plus the resumed-sites counter. No
// span — the work happened in a previous process.
func noteResumedSite(o *obs.Run, e *SiteResult) {
	if o == nil {
		return
	}
	o.Count(obs.MetricCheckpointResumed, 1)
	noteSiteCounters(o, e)
}

// noteSiteCounters folds one finished site into the crawl counters.
func noteSiteCounters(o *obs.Run, e *SiteResult) {
	o.Count(obs.MetricCrawlSites, 1)
	o.CountKind(obs.MetricCrawlOutcome, string(e.Crawl.Outcome), 1)
	o.Count(obs.MetricCrawlRecords, int64(len(e.Crawl.Records)))
	o.Observe(obs.HistSiteRecords, int64(len(e.Crawl.Records)))
	switch e.Crawl.Outcome {
	case OutcomeTimeout:
		o.Count(obs.MetricWatchdogTimeouts, 1)
	case OutcomeCrashed:
		o.CountKind(obs.MetricQuarantined, StageCrawl, 1)
	}
}
