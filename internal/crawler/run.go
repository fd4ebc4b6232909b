package crawler

import (
	"context"

	"piileak/internal/browser"
	"piileak/internal/webgen"
)

// Run executes the §3.2 flow over a site population and returns the
// assembled dataset. It is the crawl stage's batch entry point;
// CrawlStream is the streaming one, and both drive the same engine.
//
// The population is opts.Source, or the ecosystem's universe when
// Source is nil (at the default universe size, exactly the candidate
// shopping sites). Workers > 1 crawls with a bounded pool; site crawls
// are independent (each gets a fresh browser session and, under fault
// injection, its own transport with per-host breakers), and results are
// merged in site order — mailbox stream and block counters included —
// so the dataset is byte-identical to the serial crawl. ctx cancels the
// run between sites and interrupts in-flight retry backoffs; the entry
// being crawled when cancellation lands is discarded (never
// checkpointed or emitted), so a resumed run stays byte-identical to an
// uninterrupted one.
func Run(ctx context.Context, eco *webgen.Ecosystem, profile browser.Profile, opts Options) (*Dataset, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ds := newDataset(eco, profile.Name+" "+profile.Version)
	if opts.Workers <= 1 {
		// Serial emissions arrive in site order, so they merge directly.
		err := streamCrawl(ctx, eco, profile, opts, func(_ int, e crawlEntry) error {
			ds.merge(e)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
	// Parallel emissions arrive in completion order: collect them into
	// site-index slots, then merge in site order. Each index is emitted
	// exactly once, so the concurrent slot writes never race.
	results := make([]crawlEntry, opts.source(eco).Len())
	err := streamCrawl(ctx, eco, profile, opts, func(i int, e crawlEntry) error {
		results[i] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range results {
		ds.merge(results[i])
	}
	return ds, nil
}
