package crawler

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"path/filepath"

	"piileak/internal/browser"
	"piileak/internal/faultsim"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	// Crawl half the sites with a checkpoint (simulating a killed run),
	// then resume over the full set: the merged dataset must be
	// byte-identical to an uninterrupted crawl — under faults, where
	// per-site determinism actually earns its keep.
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	half := eco.Sites[:len(eco.Sites)/2]
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(half), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resumed dataset differs from uninterrupted crawl")
	}
}

func TestCheckpointResumeToleratesTornTail(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a truncated JSON line at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crawl":{"domain":"torn.example","ou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("resume after torn tail differs from uninterrupted crawl")
	}
}

func TestCheckpointRefusesForeignRun(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:2]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}

	// Different seed: the sites are a different population.
	other := faultyEcosystem(t, 54, 0.3)
	if _, err := Run(context.Background(), other, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different seed")
	}
	// Different browser: the traffic is incomparable.
	if _, err := Run(context.Background(), eco, browser.Chrome93(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint from a different browser")
	}
	// Same run resumes fine.
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err != nil {
		t.Errorf("matching resume failed: %v", err)
	}
}

// TestCheckpointRefusesChangedFaultConfig: the header binds the
// ecosystem's resolved fault seed and rate, so a faulted run's
// checkpoint refuses a resume under another rate (fault-free included)
// or another fault seed, and a fault-free checkpoint refuses a faulted
// resume. A fault-free header carries no fault fields at all.
func TestCheckpointRefusesChangedFaultConfig(t *testing.T) {
	faulty := func(seed uint64, rate float64) *webgen.Ecosystem {
		cfg := webgen.SmallConfig(53)
		cfg.Faults = &faultsim.Config{Seed: seed, Rate: rate}
		return webgen.MustGenerate(cfg)
	}
	clean := webgen.MustGenerate(webgen.SmallConfig(53))
	ctx := context.Background()
	write := func(eco *webgen.Ecosystem) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "crawl.ckpt")
		if _, err := Run(ctx, eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:2]), CheckpointPath: path}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	resume := func(eco *webgen.Ecosystem, path string) error {
		_, err := Run(ctx, eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:3]), CheckpointPath: path, Resume: true})
		return err
	}

	faulted := write(faulty(7, 0.3))
	for name, eco := range map[string]*webgen.Ecosystem{
		"changed fault rate": faulty(7, 0.1),
		"changed fault seed": faulty(8, 0.3),
		"faults off":         clean,
	} {
		if err := resume(eco, faulted); err == nil {
			t.Errorf("%s: resume accepted a faulted run's checkpoint", name)
		}
	}
	if err := resume(faulty(7, 0.3), faulted); err != nil {
		t.Errorf("matching faulted resume failed: %v", err)
	}

	plain := write(clean)
	if err := resume(faulty(7, 0.3), plain); err == nil {
		t.Error("faulted resume accepted a fault-free checkpoint")
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := bytes.Cut(data, []byte("\n")); bytes.Contains(header, []byte("fault")) {
		t.Errorf("fault-free header carries fault fields: %s", header)
	}
}

func TestCheckpointRefusesDuplicateEntries(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:2]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if err := os.WriteFile(path, append(data, []byte(last+"\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{CheckpointPath: path, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint with a duplicated site")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error %q does not name the duplicate", err)
	}
}

func TestCheckpointParallelResumeMatchesSerial(t *testing.T) {
	eco := faultyEcosystem(t, 59, 0.3)
	full, err := Run(context.Background(), eco, browser.Firefox88(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, full)

	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{
		Source: site.Slice(eco.Sites[:len(eco.Sites)/3]), Workers: 4, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), eco, browser.Firefox88(), Options{Workers: 4, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, datasetBytes(t, resumed)) {
		t.Error("parallel resume differs from uninterrupted serial crawl")
	}
}

func TestCheckpointFreshRunTruncatesStaleFile(t *testing.T) {
	// Without -resume, an existing checkpoint is overwritten, not
	// appended to: a second fresh run must not see the first's entries.
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:4]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eco, browser.Firefox88(), Options{Source: site.Slice(eco.Sites[:1]), CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := OpenCheckpoint(path, eco, browser.Firefox88(), true, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.Done() != 1 {
		t.Errorf("fresh run left %d entries, want 1", ckpt.Done())
	}
}

// TestCheckpointAppendKeepsNoSites: appended sites go to disk only.
// Nothing reads them back within the run — lookups hit only sites
// loaded on open — so holding them would make every checkpointed run
// O(N) in memory.
func TestCheckpointAppendKeepsNoSites(t *testing.T) {
	eco := faultyEcosystem(t, 53, 0.3)
	path := filepath.Join(t.TempDir(), "crawl.ckpt")
	ckpt, err := OpenCheckpoint(path, eco, browser.Firefox88(), false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	for _, s := range eco.Sites[:3] {
		if err := ckpt.Append(SiteResult{Crawl: SiteCrawl{Domain: s.Domain, Rank: s.Rank, Outcome: OutcomeSuccess}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := ckpt.Done(); n != 0 {
		t.Errorf("Done() = %d after 3 appends to a fresh checkpoint, want 0 (sites loaded on open)", n)
	}
	if _, ok := ckpt.lookup(eco.Sites[0].Domain); ok {
		t.Error("lookup found a site appended this run")
	}
}

// TestCheckpointShardReadsHeaderOnly: the label comes from the first
// line alone, whatever follows it, and a missing or unparsable first
// line is "not a checkpoint" rather than an error.
func TestCheckpointShardReadsHeaderOnly(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(11))
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ckpt")
	c, err := OpenCheckpoint(path, eco, browser.Firefox88(), false, "2/4")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// A large tail that is not JSON at all: only the header may be read.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte("\x00{not json\xff"), 1<<18)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if label, found, err := CheckpointShard(path); err != nil || !found || label != "2/4" {
		t.Fatalf("CheckpointShard = %q, %v, %v; want \"2/4\", true, nil", label, found, err)
	}

	for name, data := range map[string][]byte{
		"empty":       nil,
		"garbage":     []byte("not a header\n{\"version\":1}\n"),
		"no version":  []byte("{\"browser\":\"Firefox\"}\n"),
		"overlong":    append(bytes.Repeat([]byte(" "), 2*maxHeaderLine), []byte("{\"version\":1}\n")...),
		"torn header": []byte("{\"version\":1,\"shard\":\"1/2\""),
	} {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if label, found, err := CheckpointShard(p); err != nil || found {
			t.Errorf("%s: CheckpointShard = %q, %v, %v; want not found, nil", name, label, found, err)
		}
	}
	// A header with no newline after it is still a header.
	bare := filepath.Join(dir, "bare")
	if err := os.WriteFile(bare, []byte("{\"version\":1,\"shard\":\"1/2\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if label, found, err := CheckpointShard(bare); err != nil || !found || label != "1/2" {
		t.Errorf("bare header: CheckpointShard = %q, %v, %v; want \"1/2\", true, nil", label, found, err)
	}
	if _, found, err := CheckpointShard(filepath.Join(dir, "missing")); err != nil || found {
		t.Errorf("missing file: found = %v, err = %v; want false, nil", found, err)
	}
}
