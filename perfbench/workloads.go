package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"piileak"
)

// referenceSeed is the paper's ecosystem seed; README.md records the
// held-out seed kept back for claims.
const referenceSeed = 2021

// goldenSummary is the sha256 of the paper-repro summary JSON at the
// reference seed. The repository pins leak and table bytes across
// every run mode, so this digest changes only when study output does.
const goldenSummary = "de9ed10c7320fedfb64159320b6ea4751f0e0bbce24a1f005fa3354b916bf910"

// opResult is one timed operation: one study iteration.
type opResult struct {
	latency time.Duration
	cpu     time.Duration // the process CPU the operation took
	sites   int
	err     error // non-nil: the operation failed or its output was wrong
}

// workload is one benchmark scenario. setup brings a fresh process to
// ready-to-run; prepare does the untimed work the output checks need;
// measure runs the timed phase for about d; trace drives the workload
// serially with every layer call timed. Files go under the workload's
// directory, which the caller removes: on disks with online discard,
// deleting fsynced files is slow enough that it must not happen
// between measurements.
type workload interface {
	setup(ctx context.Context) error
	prepare(ctx context.Context) error
	measure(ctx context.Context, m *meter, d time.Duration) []opResult
	trace(ctx context.Context, tr *tracer) error
	close()
}

// sizes scales the workloads; tests shrink them.
type sizes struct {
	universe int // universe-1m population
}

var fullSizes = sizes{universe: 1_000_000}

func newWorkload(name string, seed uint64, dir string, sz sizes) (workload, error) {
	switch name {
	case "paper-repro":
		return &paperRepro{studyState: studyState{seed: seed, dir: dir}}, nil
	case "universe-1m":
		return &universeRun{studyState{seed: seed, dir: dir}, sz.universe}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// studyConfig is the paper's 404-site configuration at the workload
// seed.
func studyConfig(seed uint64) piileak.Config {
	cfg := piileak.DefaultConfig()
	cfg.Ecosystem.Seed = seed
	return cfg
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func leaksJSON(s *piileak.Study) ([]byte, error) {
	var buf bytes.Buffer
	err := s.WriteLeaksJSON(&buf)
	return buf.Bytes(), err
}

func summaryJSON(s *piileak.Study) ([]byte, error) {
	var buf bytes.Buffer
	err := s.WriteSummaryJSON(&buf)
	return buf.Bytes(), err
}

// verifier compares each operation's output bytes with a reference
// digest; a mismatch fails the operation.
type verifier struct {
	// tamper, when set, rewrites the output before the comparison. The
	// benchmark's tests use it to show that a corrupted output counts
	// as a failure.
	tamper func([]byte) []byte
}

func (v *verifier) outputs() *verifier { return v }

func (v *verifier) check(what string, out []byte, want string) error {
	if v.tamper != nil {
		out = v.tamper(out)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("%s digest %.12s, want %.12s", what, got, want)
	}
	return nil
}

// forget drops a study's previous results so one iteration's output is
// garbage before the next starts, and the live heap shows one run.
func forget(s *piileak.Study) {
	s.Dataset, s.Leaks, s.Analysis, s.Result = nil, nil, nil, nil
}

// iterate runs op back to back until d of timed wall time has passed,
// at least once. Only op is timed; check runs between timed intervals.
func iterate(m *meter, d time.Duration, op func() (int, error), check func() error) []opResult {
	var out []opResult
	for len(out) == 0 || m.wall < d {
		cpu0 := m.cpu
		m.start()
		t0 := time.Now()
		sites, err := op()
		lat := time.Since(t0)
		m.stop()
		if err == nil {
			err = check()
		}
		out = append(out, opResult{latency: lat, cpu: m.cpu - cpu0, sites: sites, err: err})
	}
	return out
}

// studyState is what both workloads share: the study set-up
// builds, and the digest their operations' output must match.
type studyState struct {
	seed  uint64
	dir   string
	study *piileak.Study
	ref   string
	verifier
}

// setup generates the ecosystem and compiles the detection engine.
func (w *studyState) setup(ctx context.Context) error {
	s, err := piileak.NewStudy(studyConfig(w.seed))
	w.study = s
	return err
}

func (w *studyState) checkLeaks() error {
	leaks, err := leaksJSON(w.study)
	if err != nil {
		return err
	}
	return w.check("leaks", leaks, w.ref)
}

func (w *studyState) close() {}

// paperRepro is the paper's study at its own scale: batch Run over the
// 404-site core, then experiments E0-E10, repeated in one process.
type paperRepro struct {
	studyState
	artifacts []byte // the last iteration's rendered E0-E10
}

// prepare computes the reference from a streamed, parallel run of the
// same configuration, a run mode that the repository pins
// byte-identical to the batch run: every iteration's E0-E10 artifacts
// must equal that run's. At the reference seed its summary JSON must
// also equal the golden digest.
func (w *paperRepro) prepare(ctx context.Context) error {
	ref, err := piileak.NewStudy(studyConfig(w.seed))
	if err != nil {
		return err
	}
	if err := ref.Run(ctx, piileak.WithStream(), piileak.WithWorkers(2, 2)); err != nil {
		return err
	}
	if w.seed == referenceSeed {
		sum, err := summaryJSON(ref)
		if err != nil {
			return err
		}
		if got := digest(sum); got != goldenSummary {
			return fmt.Errorf("reference summary digest %s differs from the golden %s", got, goldenSummary)
		}
	}
	arts, err := renderExperiments(ref)
	w.ref = digest(arts)
	return err
}

// paperExperiments are the paper's artifacts E0-E10. The ablations
// (A*, X*) are left out: A2's deliberately naive matcher alone would
// take most of each iteration.
func paperExperiments() []piileak.Experiment {
	var out []piileak.Experiment
	for _, e := range piileak.Experiments() {
		if strings.HasPrefix(e.ID, "E") {
			out = append(out, e)
		}
	}
	return out
}

// renderExperiments runs E0-E10 on a study that has run and returns
// their rendered artifacts, each under its ID. They carry every
// quantity of the summary JSON, which is not rendered per iteration
// because Study.Summary evaluates E9 and E10 over again.
func renderExperiments(s *piileak.Study) ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range paperExperiments() {
		out, err := e.Run(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&buf, "== %s\n%s\n", e.ID, out)
	}
	return buf.Bytes(), nil
}

func (w *paperRepro) op(ctx context.Context) (int, error) {
	forget(w.study)
	w.artifacts = nil
	if err := w.study.Run(ctx); err != nil {
		return 0, err
	}
	var err error
	w.artifacts, err = renderExperiments(w.study)
	return w.study.Eco.Universe().Len(), err
}

func (w *paperRepro) checkArtifacts() error {
	return w.check("E0-E10 artifacts", w.artifacts, w.ref)
}

func (w *paperRepro) measure(ctx context.Context, m *meter, d time.Duration) []opResult {
	return iterate(m, d, func() (int, error) { return w.op(ctx) }, w.checkArtifacts)
}

// universeRun is a streamed study over the lazy ranked universe with
// two crawl and two detect workers.
type universeRun struct {
	studyState
	n int
}

// prepare computes the reference: the core-only streamed run's leak
// bytes. The universe's tail is study-neutral, so the full run must
// reproduce them exactly.
func (w *universeRun) prepare(ctx context.Context) error {
	if err := w.study.Run(ctx, piileak.WithStream()); err != nil {
		return err
	}
	leaks, err := leaksJSON(w.study)
	w.ref = digest(leaks)
	forget(w.study)
	return err
}

func (w *universeRun) options() []piileak.RunOption {
	return []piileak.RunOption{piileak.WithStream(), piileak.WithUniverse(w.n), piileak.WithWorkers(2, 2)}
}

func (w *universeRun) measure(ctx context.Context, m *meter, d time.Duration) []opResult {
	return iterate(m, d, func() (int, error) {
		forget(w.study)
		return w.n, w.study.Run(ctx, w.options()...)
	}, w.checkLeaks)
}
