package crawler

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/obs"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// countingSource counts At calls per index.
type countingSource struct {
	src   site.Source
	calls []atomic.Int32
}

func newCountingSource(src site.Source) *countingSource {
	return &countingSource{src: src, calls: make([]atomic.Int32, src.Len())}
}

func (c *countingSource) Len() int { return c.src.Len() }

func (c *countingSource) At(i int) *site.Site {
	c.calls[i].Add(1)
	return c.src.At(i)
}

// TestCrawlStreamClaimsEachSiteOnce: parallel workers claim sites from
// one shared counter, so every index is materialized exactly once and
// emitted exactly once, and the materialized gauge reads the source's
// length — also when half the sites come out of a checkpoint.
func TestCrawlStreamClaimsEachSiteOnce(t *testing.T) {
	const n = 2000
	cfg := webgen.SmallConfig(11)
	cfg.UniverseSize = n
	eco := webgen.MustGenerate(cfg)
	u := eco.Universe()

	// A checkpoint holding every other site, for the resumed variant.
	var even site.Slice
	for i := 0; i < n; i += 2 {
		even = append(even, u.At(i))
	}

	for _, resume := range []bool{false, true} {
		for _, workers := range []int{2, 3, 8} {
			opts := Options{Workers: workers}
			if resume {
				opts.CheckpointPath = filepath.Join(t.TempDir(), "half.ckpt")
				if err := CrawlStream(context.Background(), eco, browser.Firefox88(), Options{Source: even, CheckpointPath: opts.CheckpointPath}, func(SiteResult) error { return nil }); err != nil {
					t.Fatal(err)
				}
				opts.Resume = true
			}
			src := newCountingSource(u)
			opts.Source = src
			o := obs.NewRun(nil)
			opts.Obs = o
			emitted := make([]atomic.Int32, n)
			err := CrawlStream(context.Background(), eco, browser.Firefox88(), opts, func(r SiteResult) error {
				emitted[r.Index].Add(1)
				if want := u.At(r.Index).Domain; r.Crawl.Domain != want {
					t.Errorf("index %d emitted %s, want %s", r.Index, r.Crawl.Domain, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("resume=%v workers=%d: %v", resume, workers, err)
			}
			for i := 0; i < n; i++ {
				if c := src.calls[i].Load(); c != 1 {
					t.Fatalf("resume=%v workers=%d: At(%d) called %d times, want 1", resume, workers, i, c)
				}
				if c := emitted[i].Load(); c != 1 {
					t.Fatalf("resume=%v workers=%d: index %d emitted %d times, want 1", resume, workers, i, c)
				}
			}
			snap := o.Snapshot()
			if got := snap.Gauges[obs.MetricUniverseMaterialized]; got != n {
				t.Errorf("resume=%v workers=%d: materialized gauge = %d, want %d", resume, workers, got, n)
			}
			wantResumed := int64(0)
			if resume {
				wantResumed = n / 2
			}
			if got := snap.Counters[obs.MetricCheckpointResumed]; got != wantResumed {
				t.Errorf("resume=%v workers=%d: resumed sites = %d, want %d", resume, workers, got, wantResumed)
			}
		}
	}
}
