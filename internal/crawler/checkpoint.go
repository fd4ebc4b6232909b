package crawler

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/webgen"
)

// A Checkpoint persists per-site crawl progress as JSON lines: one
// header identifying the run, then one self-contained line per finished
// site (crawl record, mail, shield blocks). Each line is written and
// synced whole, so a killed run loses at most the site in flight; on
// resume the file is validated against the ecosystem, any torn trailing
// line from the crash is dropped, and the surviving prefix is rewritten
// atomically (temp file + rename) before new progress is appended.
type Checkpoint struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[string]crawlEntry
	order   []string // on-disk entry sequence, for the resume rewrite
	torn    int      // non-empty lines dropped on load (crash-torn tail)
	appends int      // lines appended this run, for the failpoint
	closed  bool
}

// CheckpointFailpoint, when non-nil, is invoked around every checkpoint
// append with an event name ("pre" before the line is written, "mid"
// after only its first half reached the file, "post" after the synced
// write) and the 1-based append count. The torture harness uses it to
// kill the process at precise points; with the hook installed the line
// is written in two halves so a "mid" kill leaves a genuinely torn
// record on disk. Test-only; leave nil in production code.
var CheckpointFailpoint func(event string, appends int)

// checkpointHeader pins a checkpoint to one run: resuming under a
// different seed, site population, browser, fault config or shard scope
// silently mixes datasets, so it is refused instead. Shard is the "i/K"
// label of a sharded study's failure domain ("" for unsharded runs) — a
// shard checkpoint resumed by a different shard, or an unsharded
// checkpoint resumed by a sharded run, is a header mismatch, not silent
// data corruption. FaultSeed and FaultRate are the ecosystem's resolved
// fault-injection config; both are zero, and absent from the JSON, on
// fault-free runs, so fault-free headers keep their bytes.
type checkpointHeader struct {
	Version   int     `json:"version"`
	Browser   string  `json:"browser"`
	Seed      uint64  `json:"seed"`
	Sites     int     `json:"sites"`
	Shard     string  `json:"shard,omitempty"`
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
}

const checkpointVersion = 1

func headerFor(eco *webgen.Ecosystem, profile browser.Profile, shard string) checkpointHeader {
	h := checkpointHeader{
		Version: checkpointVersion,
		Browser: profile.Name + " " + profile.Version,
		Seed:    eco.Config.Seed,
		Sites:   eco.Config.ShoppingSites,
		Shard:   shard,
	}
	if inj := eco.Faults; inj != nil {
		h.FaultSeed, h.FaultRate = inj.Seed(), inj.Rate()
	}
	return h
}

// String renders the header's run identity for mismatch errors.
func (h checkpointHeader) String() string {
	return fmt.Sprintf("%s seed=%d sites=%d shard=%q faults=%g fault-seed=%d",
		h.Browser, h.Seed, h.Sites, h.Shard, h.FaultRate, h.FaultSeed)
}

// CheckpointShard peeks at a checkpoint file's header and reports the
// shard label it was written under ("" = unsharded). found is false
// when the file does not exist or its header line is unreadable — the
// caller cannot conclude anything about such a file beyond "not a
// valid checkpoint".
func CheckpointShard(path string) (shard string, found bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	var hdr checkpointHeader
	if json.Unmarshal(line, &hdr) != nil || hdr.Version == 0 {
		return "", false, nil
	}
	return hdr.Shard, true, nil
}

// OpenCheckpoint opens a checkpoint file for a run. With resume set and
// an existing file, completed entries are loaded (and the file's torn
// tail, if any, discarded); otherwise the file is created fresh. shard
// is the run's "i/K" shard label ("" for unsharded runs) — resuming
// across shard scopes is refused via the header check.
func OpenCheckpoint(path string, eco *webgen.Ecosystem, profile browser.Profile, resume bool, shard string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, entries: map[string]crawlEntry{}}
	want := headerFor(eco, profile, shard)

	if resume {
		if err := c.load(want); err != nil {
			return nil, err
		}
	}

	// Rewrite header + surviving entries to a temp file and rename:
	// this truncates any torn tail atomically and leaves the file ready
	// for whole-line appends. A fresh (non-resume) open is the same
	// write with zero entries.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	w := bufio.NewWriter(tmp)
	fail := func(err error) (*Checkpoint, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	if err := writeLine(w, want); err != nil {
		return fail(err)
	}
	for _, domain := range c.order {
		if err := writeLine(w, c.entries[domain]); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(err)
	}

	c.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	return c, nil
}

func writeLine(w *bufio.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return err
}

// load reads an existing checkpoint, validating the header and keeping
// every intact entry line. A missing file is an empty checkpoint; a
// malformed line ends the readable prefix (crash-torn tail).
func (c *Checkpoint) load(want checkpointHeader) error {
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return nil // empty file: treat as fresh
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("crawler: checkpoint %s: malformed header: %w", c.path, err)
	}
	if hdr != want {
		return fmt.Errorf("crawler: checkpoint %s: written for %s, resume requested for %s", c.path, hdr, want)
	}
	rest := lines[1:]
	for li, line := range rest {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e crawlEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Crawl.Domain == "" {
			// A torn tail from a killed run: everything before it is
			// good, the in-flight site re-crawls. Count what is being
			// dropped so the resume summary can report it instead of
			// discarding data silently.
			for _, dropped := range rest[li:] {
				if len(bytes.TrimSpace(dropped)) > 0 {
					c.torn++
				}
			}
			break
		}
		if _, dup := c.entries[e.Crawl.Domain]; dup {
			return fmt.Errorf("crawler: checkpoint %s: duplicate site %q", c.path, e.Crawl.Domain)
		}
		c.entries[e.Crawl.Domain] = e
		c.order = append(c.order, e.Crawl.Domain)
	}
	return nil
}

// TornRecords reports how many non-empty lines the load dropped as a
// crash-torn tail. Safe on a nil receiver.
func (c *Checkpoint) TornRecords() int {
	if c == nil {
		return 0
	}
	return c.torn
}

// lookup returns a completed site's entry. Safe on a nil receiver — the
// no-checkpoint crawl path — and for concurrent use: the streaming
// feeder looks sites up while workers Append freshly crawled ones.
func (c *Checkpoint) lookup(domain string) (crawlEntry, bool) {
	if c == nil {
		return crawlEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[domain]
	return e, ok
}

// Done reports how many sites the checkpoint already holds.
func (c *Checkpoint) Done() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Append persists one finished site. The line is written whole and
// synced before Append returns, so progress survives a kill.
func (c *Checkpoint) Append(e crawlEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appends++
	if fp := CheckpointFailpoint; fp != nil {
		// Torture mode: write the line in two unbuffered halves with a
		// hook between them, so a kill at "mid" tears the record on
		// disk exactly the way a real crash mid-write would.
		fp("pre", c.appends)
		half := len(line) / 2
		if _, err := c.f.Write(line[:half]); err != nil {
			return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
		}
		fp("mid", c.appends)
		if _, err := c.f.Write(line[half:]); err != nil {
			return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
		}
	} else if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
	}
	if fp := CheckpointFailpoint; fp != nil {
		fp("post", c.appends)
	}
	c.entries[e.Crawl.Domain] = e
	c.order = append(c.order, e.Crawl.Domain)
	return nil
}

// Close releases the file; it is idempotent so a deferred Close after
// an explicit one is harmless.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.f.Close(); err != nil {
		return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
	}
	return nil
}
