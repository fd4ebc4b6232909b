package oracle

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"piileak/internal/browser"
	"piileak/internal/crawler"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/webgen"
)

func testDetector(t *testing.T, zone *dnssim.Zone) *Detector {
	t.Helper()
	cs := pii.MustBuildCandidates(pii.Default(), pii.CandidateConfig{
		MaxDepth:   2,
		Transforms: []string{"md5", "sha1", "sha256", "base64"},
	})
	var cls *dnssim.Classifier
	if zone != nil {
		cls = dnssim.NewClassifier(zone)
	}
	return NewDetector(cs, cls)
}

func sha256Email(t *testing.T) string {
	t.Helper()
	return string(pii.MustApplyChain(pii.Default().Email, []string{"sha256"}))
}

func TestDetectRecordURI(t *testing.T) {
	d := testDetector(t, nil)
	rec := httpmodel.Record{
		Seq: 1, Phase: httpmodel.PhaseSignup,
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://ct.pinterest.com/v3/collect?pd=" + sha256Email(t) + "&v=2",
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1: %+v", len(leaks), leaks)
	}
	l := leaks[0]
	if l.Receiver != "pinterest.com" || l.Method != httpmodel.SurfaceURI {
		t.Errorf("leak = %+v", l)
	}
	if l.Param != "pd" {
		t.Errorf("param = %q, want pd", l.Param)
	}
	if l.EncodingLabel() != "sha256" {
		t.Errorf("encoding = %q", l.EncodingLabel())
	}
	if l.Token.Field.Type != pii.TypeEmail {
		t.Errorf("PII type = %q", l.Token.Field.Type)
	}
}

func TestDetectRecordFirstPartyIgnored(t *testing.T) {
	d := testDetector(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://www.shop.example.com/signup?email=" + pii.Default().Email,
		},
	}
	if leaks := d.DetectRecord("shop.example.com", &rec); leaks != nil {
		t.Errorf("first-party request produced leaks: %+v", leaks)
	}
}

func TestDetectRecordReferer(t *testing.T) {
	d := testDetector(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://ib.adnxs.com/seg?add=1",
			Headers: map[string]string{
				"Referer": "https://www.shop.example.com/signup?email=" + pii.Default().Email,
			},
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 || leaks[0].Method != httpmodel.SurfaceReferer {
		t.Fatalf("leaks = %+v", leaks)
	}
	if leaks[0].EncodingLabel() != "plaintext" {
		t.Errorf("encoding = %q", leaks[0].EncodingLabel())
	}
}

func TestDetectRecordPayloadJSON(t *testing.T) {
	d := testDetector(t, nil)
	b64 := pii.MustApplyChain(pii.Default().Email, []string{"base64"})
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:   "POST",
			URL:      "https://api.bluecore.com/events",
			Body:     []byte(`{"data":"` + string(b64) + `","event":"identify"}`),
			BodyType: "application/json",
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 || leaks[0].Method != httpmodel.SurfaceBody {
		t.Fatalf("leaks = %+v", leaks)
	}
	if leaks[0].Param != "data" {
		t.Errorf("param = %q, want data", leaks[0].Param)
	}
}

func TestDetectRecordCookie(t *testing.T) {
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.shop.example.com", "shopexample.sc.omtrdc.net")
	d := testDetector(t, zone)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:  "GET",
			URL:     "https://smetrics.shop.example.com/b/ss/pageview",
			Cookies: []httpmodel.Cookie{{Name: "s_ecid", Value: sha256Email(t), Domain: "smetrics.shop.example.com"}},
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %+v", leaks)
	}
	l := leaks[0]
	if !l.Cloaked || l.Receiver != "omtrdc.net" || l.Method != httpmodel.SurfaceCookie {
		t.Errorf("leak = %+v", l)
	}
	if l.Param != "s_ecid" {
		t.Errorf("param = %q", l.Param)
	}
}

func TestDetectRecordUncloakedFirstPartyCookieIgnored(t *testing.T) {
	d := testDetector(t, dnssim.NewZone())
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method:  "GET",
			URL:     "https://account.shop.example.com/session",
			Cookies: []httpmodel.Cookie{{Name: "sid", Value: sha256Email(t), Domain: "shop.example.com"}},
		},
	}
	if leaks := d.DetectRecord("shop.example.com", &rec); leaks != nil {
		t.Errorf("non-cloaked first-party cookie flagged: %+v", leaks)
	}
}

func TestDetectDedupAcrossSurfaces(t *testing.T) {
	// The same token appears in the raw query, the decoded query, and
	// a named parameter: one leak, attributed to the parameter.
	d := testDetector(t, nil)
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://t.tracker.net/c?em=" + sha256Email(t),
		},
	}
	leaks := d.DetectRecord("shop.example.com", &rec)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1 (deduplicated)", len(leaks))
	}
	if leaks[0].Param != "em" {
		t.Errorf("param = %q, want em (named surface wins)", leaks[0].Param)
	}
}

func TestDecodeDetectFindsBase64(t *testing.T) {
	// A detector whose candidate set has NO base64 tokens still finds
	// the leak by decoding the surface.
	cs := pii.MustBuildCandidates(pii.Default(), pii.CandidateConfig{
		MaxDepth:   1,
		Transforms: []string{"sha256"},
	})
	d := NewDetector(cs, nil)
	b64 := pii.MustApplyChain(pii.Default().Email, []string{"base64"})
	rec := httpmodel.Record{
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://static.klaviyo.com/onsite/identify?data=" + string(b64),
		},
	}
	if got := d.DetectRecord("shop.example.com", &rec); got != nil {
		t.Fatalf("candidate-set detection unexpectedly matched: %+v", got)
	}
	leaks := d.DecodeDetect("shop.example.com", &rec, 2)
	if len(leaks) == 0 {
		t.Fatal("decode-based detection missed the base64 leak")
	}
	if leaks[0].Token.Label() != "plaintext" {
		t.Errorf("decoded token label = %q", leaks[0].Token.Label())
	}
}

func TestDecodeDetectStableOrder(t *testing.T) {
	// A record leaking the same persona on several surfaces: the output
	// must be sorted by (method, param, token) and identical on every
	// call — the A3 ablation diffs this list, so insertion order (which
	// depends on surface iteration) must never show through.
	d := testDetector(t, nil)
	p := pii.Default()
	rec := httpmodel.Record{
		Seq: 3, Phase: httpmodel.PhaseSignup,
		Request: httpmodel.Request{
			Method: "GET",
			URL:    "https://t.tracker.net/c?em=" + p.Email + "&ph=" + p.Phone,
			Headers: map[string]string{
				"Referer": "https://www.shop.example.com/signup?email=" + p.Email,
			},
		},
	}
	leaks := d.DecodeDetect("shop.example.com", &rec, 2)
	if len(leaks) < 3 {
		t.Fatalf("leaks = %d, want >= 3 (two query params + referer): %+v", len(leaks), leaks)
	}
	if !sort.SliceIsSorted(leaks, func(a, b int) bool {
		if leaks[a].Method != leaks[b].Method {
			return leaks[a].Method < leaks[b].Method
		}
		if leaks[a].Param != leaks[b].Param {
			return leaks[a].Param < leaks[b].Param
		}
		return leaks[a].Token.Value < leaks[b].Token.Value
	}) {
		t.Errorf("DecodeDetect output not sorted by (method, param, token): %+v", leaks)
	}
	for i := 0; i < 10; i++ {
		again := d.DecodeDetect("shop.example.com", &rec, 2)
		if !reflect.DeepEqual(leaks, again) {
			t.Fatalf("DecodeDetect unstable on call %d", i)
		}
	}
}

func BenchmarkDetectSite(b *testing.B) {
	eco := webgen.MustGenerate(webgen.SmallConfig(21))
	ds, err := crawler.Run(context.Background(), eco, browser.Firefox88(), crawler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cs := pii.MustBuildCandidates(eco.Persona, pii.CandidateConfig{MaxDepth: 2})
	det := NewDetector(cs, dnssim.NewClassifier(eco.Zone))
	succ := ds.Successes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := succ[i%len(succ)]
		det.DetectSite(c.Domain, c.Records)
	}
}
