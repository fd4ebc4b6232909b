package suite_test

import (
	"path/filepath"
	"testing"

	"piileak/internal/analysis"
	"piileak/internal/analysis/suite"
)

// BenchmarkPiilint times the full lint pass — go list, parsing,
// type-checking against export data, and all eight analyzers — over
// every package in the module, across the driver's operating points:
// sequential vs parallel workers, and cold vs warm cache.
func BenchmarkPiilint(b *testing.B) {
	root, err := analysis.ModuleRoot()
	if err != nil {
		b.Fatal(err)
	}

	runDriver := func(b *testing.B, workers int, cache *analysis.Cache) {
		b.Helper()
		var packages int
		for i := 0; i < b.N; i++ {
			g, err := analysis.LoadGraph(root, "./...")
			if err != nil {
				b.Fatal(err)
			}
			d := &analysis.Driver{Workers: workers, Cache: cache}
			findings, _, err := d.Run(g, suite.Analyzers())
			if err != nil {
				b.Fatal(err)
			}
			if len(findings) != 0 {
				b.Fatalf("repo not lint-clean: %v", findings[0])
			}
			packages = len(g.Packages)
		}
		b.ReportMetric(float64(packages), "packages")
	}

	b.Run("sequential", func(b *testing.B) { runDriver(b, 1, nil) })
	b.Run("workers4", func(b *testing.B) { runDriver(b, 4, nil) })
	b.Run("workers8", func(b *testing.B) { runDriver(b, 8, nil) })
	b.Run("cold-cache", func(b *testing.B) {
		// A fresh cache directory per iteration: every package misses,
		// so the arm measures analysis plus cache writes.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := &analysis.Cache{Dir: filepath.Join(b.TempDir(), "lintcache")}
			b.StartTimer()
			g, err := analysis.LoadGraph(root, "./...")
			if err != nil {
				b.Fatal(err)
			}
			d := &analysis.Driver{Workers: 8, Cache: cache}
			if _, _, err := d.Run(g, suite.Analyzers()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		cache := &analysis.Cache{Dir: filepath.Join(b.TempDir(), "lintcache")}
		g, err := analysis.LoadGraph(root, "./...")
		if err != nil {
			b.Fatal(err)
		}
		d := &analysis.Driver{Workers: 8, Cache: cache}
		if _, _, err := d.Run(g, suite.Analyzers()); err != nil {
			b.Fatal(err) // seed the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := analysis.LoadGraph(root, "./...")
			if err != nil {
				b.Fatal(err)
			}
			findings, stats, err := d.Run(g, suite.Analyzers())
			if err != nil {
				b.Fatal(err)
			}
			if len(findings) != 0 || len(stats.Analyzed) != 0 {
				b.Fatalf("warm run should be fully cached and clean: %d findings, %d analyzed",
					len(findings), len(stats.Analyzed))
			}
		}
	})
}
