package crawler

import (
	"bytes"
	"context"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// mustRun crawls through Run and fails the test on error.
func mustRun(tb testing.TB, eco *webgen.Ecosystem, profile browser.Profile, opts Options) *Dataset {
	tb.Helper()
	ds, err := Run(context.Background(), eco, profile, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func runDatasetJSON(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunLazySourceMatchesEagerSites: the same population supplied
// lazily (the ecosystem's universe) and eagerly (the materialized core
// slice) crawls to byte-identical datasets, serial and parallel.
func TestRunLazySourceMatchesEagerSites(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	profile := browser.Firefox88()

	want := runDatasetJSON(t, mustRun(t, eco, profile, Options{Source: site.Slice(eco.Sites)}))
	lazy := mustRun(t, eco, profile, Options{Source: eco.Universe()})
	if got := runDatasetJSON(t, lazy); !bytes.Equal(got, want) {
		t.Error("lazy serial crawl diverges from the eager slice")
	}
	parallel := mustRun(t, eco, profile, Options{Source: eco.Universe(), Workers: 4})
	if got := runDatasetJSON(t, parallel); !bytes.Equal(got, want) {
		t.Error("lazy parallel crawl diverges from the eager slice")
	}
}
