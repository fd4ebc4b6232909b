package piileak

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/faultsim"
	"piileak/internal/shard"
	"piileak/internal/webgen"
)

// TestOnDiskFormatsPinned pins the exact bytes of the two per-site
// on-disk formats: a serial checkpointed crawl's checkpoint file and a
// K=2 split's shard result files. Every byte-identity test elsewhere
// compares outputs derived from these files; this one compares the
// files themselves, so a change to a per-site type's fields, order or
// JSON tags shows up here even when the study output survives it.
//
// The inputs are chosen so every per-site line field is present at
// least once: Brave's shields produce blocked counts, confirmation
// sites produce mail, faults produce the attempt/retry/failed-fetch
// counters, and the shard files carry records, leaks and requests.
func TestOnDiskFormatsPinned(t *testing.T) {
	const (
		wantCheckpoint = "9e8ce1fc0975c6e8565e3e02896d21f4d8b0f10b8b05473b94f5f0ee043d19b5"
		wantShard0     = "3a4acf396cf51d72ab9b38efef50a8122f71b8cbefed1a04042f224b82ba7f79"
		wantShard1     = "f7f78fcbb36e3a0fbc6b6449336e9a791d2d5db9f56967610572a1c431fd6331"
	)
	cfg := webgen.SmallConfig(11)
	cfg.Faults = &faultsim.Config{Rate: 0.3}
	eco := webgen.MustGenerate(cfg)
	profile := browser.Brave129(eco.BraveShields)
	ctx := context.Background()
	dir := t.TempDir()

	check := func(t *testing.T, path, want string, fields ...string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fields {
			if !bytes.Contains(data, []byte(`"`+f+`":`)) {
				t.Errorf("%s: no line carries %q, so the pin does not cover it", filepath.Base(path), f)
			}
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(path), got, want)
		}
	}

	t.Run("checkpoint", func(t *testing.T) {
		path := filepath.Join(dir, "crawl.ckpt")
		if _, err := crawler.Run(ctx, eco, profile, crawler.Options{CheckpointPath: path}); err != nil {
			t.Fatal(err)
		}
		check(t, path, wantCheckpoint, "crawl", "mail", "blocked", "records", "attempts", "retries", "failed_fetches")
	})

	t.Run("shard-results", func(t *testing.T) {
		det := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
		const shards = 2
		for s, want := range []string{wantShard0, wantShard1} {
			path, err := shard.RunWorker(ctx, eco, profile, det, shard.WorkerConfig{Shard: s, Shards: shards, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			check(t, path, want, "index", "crawl", "mail", "blocked", "records", "leaks", "requests", "attempts", "retries", "failed_fetches")
		}
	})
}
