package core_test

import (
	"context"
	"strings"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/webgen"
)

// detectSuccesses crawls the ecosystem and scans every successful site
// with the production detection engine.
func detectSuccesses(t *testing.T, eco *webgen.Ecosystem) ([]core.Leak, int) {
	t.Helper()
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := detect.MustNewEngine(eco.Persona, dnssim.NewClassifier(eco.Zone), detect.Config{})
	var leaks []core.Leak
	for _, c := range ds.Successes() {
		leaks = append(leaks, eng.DetectSite(c.Domain, c.Records)...)
	}
	return leaks, len(ds.Successes())
}

// TestEndToEndRecoversGroundTruth is the package's key property: the
// detection pipeline, run over simulated traffic only, must recover the
// ecosystem's calibrated leak graph.
func TestEndToEndRecoversGroundTruth(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(21))
	leaks, successes := detectSuccesses(t, eco)
	a := core.Analyze(leaks, successes)

	// Every configured sender is detected; nothing else is.
	wantSenders := map[string]bool{}
	for _, s := range eco.SenderSites {
		wantSenders[s.Domain] = true
	}
	for _, s := range a.Senders {
		if !wantSenders[s] {
			t.Errorf("false-positive sender %s", s)
		}
	}
	if len(a.Senders) != len(eco.SenderSites) {
		t.Errorf("senders detected = %d, want %d", len(a.Senders), len(eco.SenderSites))
	}

	// Every edge's receiver is recovered.
	wantPairs := map[string]bool{}
	for _, ed := range eco.Edges {
		wantPairs[eco.SenderSites[ed.Sender].Domain+"->"+eco.Providers[ed.Provider].Domain] = true
	}
	gotPairs := map[string]bool{}
	for _, l := range leaks {
		gotPairs[l.Site+"->"+l.Receiver] = true
	}
	for p := range wantPairs {
		if !gotPairs[p] {
			t.Errorf("edge not recovered: %s", p)
		}
	}

	// No benign receiver is implicated.
	for _, l := range leaks {
		if strings.Contains(l.Receiver, "jscdn-static") || strings.Contains(l.Receiver, "webfonts-host") {
			t.Errorf("benign CDN implicated: %+v", l)
		}
	}

	// The cloaked Adobe receiver is found as omtrdc.net via CNAME.
	foundCloaked := false
	for _, l := range leaks {
		if l.Cloaked && l.Receiver == "omtrdc.net" {
			foundCloaked = true
		}
	}
	if !foundCloaked {
		t.Error("cloaked Adobe leaks not recovered")
	}

	// Referer leaks from the GET-form senders are recovered.
	refSenders := map[string]bool{}
	for _, l := range leaks {
		if l.Method == httpmodel.SurfaceReferer {
			refSenders[l.Site] = true
		}
	}
	if len(refSenders) != 3 {
		t.Errorf("referer senders = %d, want 3", len(refSenders))
	}
}

// TestAnalysisInvariants checks structural properties of the aggregates
// over a real end-to-end leak set.
func TestAnalysisInvariants(t *testing.T) {
	eco := webgen.MustGenerate(webgen.SmallConfig(47))
	leaks, successes := detectSuccesses(t, eco)
	a := core.Analyze(leaks, successes)
	total := len(a.Senders)

	// PII-type buckets partition the senders exactly.
	sum := 0
	for _, r := range a.ByPIIType() {
		sum += r.Senders
	}
	if sum != total {
		t.Errorf("PII buckets sum to %d, want %d", sum, total)
	}

	// No per-method count can exceed the population; the combined row
	// is bounded by the smallest pair.
	for _, r := range a.ByMethod() {
		if r.Senders > total || r.Receivers > len(a.Receivers) {
			t.Errorf("method row %q exceeds population: %+v", r.Label, r)
		}
	}

	// TopReceivers is sorted descending and percentage-consistent.
	top := a.TopReceivers(0)
	for i := 1; i < len(top); i++ {
		if top[i].Senders > top[i-1].Senders {
			t.Fatalf("TopReceivers not sorted at %d", i)
		}
	}
	for _, r := range top {
		want := 100 * float64(r.Senders) / float64(total)
		if diff := r.SenderPct - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s pct = %v, want %v", r.Receiver, r.SenderPct, want)
		}
	}

	// Headline totals agree with the raw aggregates.
	h := a.Headline()
	if h.Senders != total || h.Receivers != len(a.Receivers) {
		t.Errorf("headline inconsistent: %+v", h)
	}
}
