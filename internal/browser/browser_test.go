package browser

import (
	"reflect"
	"strings"
	"testing"

	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/site"
)

func leakySite() *site.Site {
	return &site.Site{
		Domain:    "urbanmarket.com",
		Collected: []pii.Type{pii.TypeEmail, pii.TypeName},
		Tags: []site.Tag{
			{
				Receiver: "facebook.com", Host: "www.facebook.com",
				Path: "/en_US/fbevents.js", Type: httpmodel.TypeScript, OnSubpages: true,
				Actions: []site.LeakAction{{
					Method: httpmodel.SurfaceURI, Param: "udff[em]",
					Chain: []string{"sha256"}, PII: []pii.Type{pii.TypeEmail},
				}},
			},
			{
				Receiver: "jscdn-static.net", Host: "cdn.jscdn-static.net",
				Path: "/lib/app.js", Type: httpmodel.TypeScript, OnSubpages: true,
			},
		},
	}
}

func TestVisitPageRecordsDocumentAssetAndTags(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
	if len(b.Records) != 4 { // document + asset + 2 tags
		t.Fatalf("records = %d, want 4", len(b.Records))
	}
	if b.Records[0].Request.Type != httpmodel.TypeDocument {
		t.Error("first record is not the document")
	}
	for _, r := range b.Records[1:] {
		if r.Request.Headers["Referer"] == "" {
			t.Errorf("subresource %s missing referer", r.Request.URL)
		}
	}
}

func TestSubpageOnlyLoadsPersistentTags(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	s.Tags[1].OnSubpages = false
	b.VisitPage(s, s.PageURL("/product/1"), httpmodel.PhaseSubpage, true)
	for _, r := range b.Records {
		if strings.Contains(r.Request.URL, "jscdn-static") {
			t.Error("non-persistent tag loaded on subpage")
		}
	}
}

func TestFireAuthEventEmitsLeak(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	p := pii.Default()
	b.FireAuthEvent(s, s.BaseURL(), httpmodel.PhaseSignup, false, p, 1)
	if len(b.Records) != 1 {
		t.Fatalf("records = %d, want 1 leak", len(b.Records))
	}
	want := string(pii.MustApplyChain(p.Email, []string{"sha256"}))
	if !strings.Contains(b.Records[0].Request.URL, want) {
		t.Error("leak request does not carry the hashed email")
	}
	// times=2 doubles the emission.
	b.Reset()
	b.FireAuthEvent(s, s.BaseURL(), httpmodel.PhaseSubpage, false, p, 2)
	if len(b.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(b.Records))
	}
}

func TestBraveShieldsBlockReceiver(t *testing.T) {
	shields := map[string]bool{"facebook.com": true}
	b := New(Brave129(shields), nil)
	s := leakySite()
	b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
	for _, r := range b.Records {
		if strings.Contains(r.Request.URL, "facebook") {
			t.Error("shielded request went through")
		}
	}
	if b.Blocked["facebook.com"] == 0 {
		t.Error("block not counted")
	}
	// The benign CDN is not shielded.
	found := false
	for _, r := range b.Records {
		if strings.Contains(r.Request.URL, "jscdn-static") {
			found = true
		}
	}
	if !found {
		t.Error("unshielded tag was blocked")
	}
}

func TestBraveUncloaksCNAME(t *testing.T) {
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.urbanmarket.com", "urbanmarket.sc.omtrdc.net")
	shields := map[string]bool{"omtrdc.net": true}
	b := New(Brave129(shields), zone)

	req := httpmodel.Request{Method: "GET", URL: "https://smetrics.urbanmarket.com/b/ss/pageview", Type: httpmodel.TypeImage}
	ok := b.Do(req, "https://www.urbanmarket.com/", httpmodel.PhaseReload, "", httpmodel.Response{})
	if ok {
		t.Error("cloaked request passed Brave shields")
	}
	if b.Blocked["omtrdc.net"] == 0 {
		t.Error("uncloaked block not attributed to omtrdc.net")
	}

	// A non-uncloaking profile with the same shields lets it through.
	p := Brave129(shields)
	p.UncloakCNAME = false
	b2 := New(p, zone)
	if ok := b2.Do(req, "https://www.urbanmarket.com/", httpmodel.PhaseReload, "", httpmodel.Response{}); !ok {
		t.Error("shields matched a first-party host without uncloaking")
	}
}

func TestThirdPartyCookiePolicy(t *testing.T) {
	tpCookie := httpmodel.Cookie{Name: "uid", Value: "x", Domain: "tracker.net"}
	req := httpmodel.Request{Method: "GET", URL: "https://pixel.tracker.net/p", Type: httpmodel.TypeImage}
	page := "https://www.shop.com/"

	for _, tc := range []struct {
		name    string
		profile Profile
		want    int // cookies attached
	}{
		{"vanilla chrome sends", Chrome93(), 1},
		{"safari ITP strips", Safari14(), 0},
		{"firefox vanilla sends", Firefox88(), 1},
		{"firefox ETP strips known tracker", Firefox88ETP(map[string]bool{"tracker.net": true}), 0},
		{"firefox ETP keeps unknown", Firefox88ETP(map[string]bool{"other.net": true}), 1},
	} {
		b := New(tc.profile, nil)
		b.SetCookie(tpCookie)
		b.Do(req, page, httpmodel.PhaseHomepage, "", httpmodel.Response{})
		got := len(b.Records[0].Request.Cookies)
		if got != tc.want {
			t.Errorf("%s: %d cookies attached, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFirstPartyCookiesAlwaysSent(t *testing.T) {
	// The cloaked-cookie channel: a first-party subdomain cookie is
	// attached even under ITP/Brave (what makes CNAME cloaking work).
	c := httpmodel.Cookie{Name: "s_ecid", Value: "hash", Domain: "smetrics.shop.com"}
	req := httpmodel.Request{Method: "GET", URL: "https://smetrics.shop.com/b/ss/pv", Type: httpmodel.TypeImage}
	for _, profile := range []Profile{Chrome93(), Safari14(), Firefox88ETP(map[string]bool{"omtrdc.net": true})} {
		b := New(profile, nil)
		b.SetCookie(c)
		b.Do(req, "https://www.shop.com/", httpmodel.PhaseReload, "", httpmodel.Response{})
		if len(b.Records[0].Request.Cookies) != 1 {
			t.Errorf("%s: first-party cookie stripped", profile.Name)
		}
	}
}

func TestSetCookieRespectsPolicy(t *testing.T) {
	resp := httpmodel.Response{SetCookies: []httpmodel.Cookie{{Name: "tid", Value: "1", Domain: "tracker.net"}}}
	req := httpmodel.Request{Method: "GET", URL: "https://pixel.tracker.net/p", Type: httpmodel.TypeImage}

	b := New(Safari14(), nil)
	b.Do(req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", resp)
	b.Do(req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b.Records[1].Request.Cookies) != 0 {
		t.Error("ITP stored a third-party cookie")
	}

	b2 := New(Chrome93(), nil)
	b2.Do(req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", resp)
	b2.Do(req, "https://www.shop.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b2.Records[1].Request.Cookies) != 1 {
		t.Error("Chrome dropped a storable cookie")
	}
}

func TestRefererPolicyCrossOrigin(t *testing.T) {
	// Default policy: cross-origin subresources see only the origin.
	b := New(Firefox88(), nil)
	s := leakySite()
	pageWithQuery := s.PageURL("/account/signup?email=secret%40x.com")
	got := b.refererFrom(s, pageWithQuery, "www.facebook.com")
	if strings.Contains(got, "secret") {
		t.Errorf("cross-origin referer leaked the query: %q", got)
	}
	// Same-origin gets the full URL.
	got = b.refererFrom(s, pageWithQuery, s.Host())
	if !strings.Contains(got, "secret") {
		t.Errorf("same-origin referer trimmed: %q", got)
	}
	// GET-form (unsafe-url) sites leak cross-origin.
	s.SignupGET = true
	got = b.refererFrom(s, pageWithQuery, "www.facebook.com")
	if !strings.Contains(got, "secret") {
		t.Errorf("unsafe-url referer trimmed: %q", got)
	}
}

func TestSubmitFormGETvsPOST(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	p := pii.Default()

	action := s.SignupActionURL(p) // POST form
	b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, s.BaseURL())
	if b.Records[0].Request.Method != "POST" || len(b.Records[0].Request.Body) == 0 {
		t.Errorf("POST form submission wrong: %+v", b.Records[0].Request)
	}

	s.SignupGET = true
	b.Reset()
	action = s.SignupActionURL(p)
	b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, s.BaseURL())
	if b.Records[0].Request.Method != "GET" {
		t.Error("GET form submitted as POST")
	}
	if !strings.Contains(b.Records[0].Request.URL, "email=") {
		t.Error("GET form URL lacks fields")
	}
	// The session cookie was stored.
	b.Do(httpmodel.Request{Method: "GET", URL: s.BaseURL(), Type: httpmodel.TypeDocument},
		s.BaseURL(), httpmodel.PhaseReload, "", httpmodel.Response{})
	if len(b.Records[1].Request.Cookies) == 0 {
		t.Error("session cookie not persisted")
	}
}

func TestResetClearsState(t *testing.T) {
	b := New(Chrome93(), nil)
	b.SetCookie(httpmodel.Cookie{Name: "x", Value: "1", Domain: "a.com"})
	b.Do(httpmodel.Request{Method: "GET", URL: "https://a.com/"}, "https://a.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	b.Reset()
	if len(b.Records) != 0 || len(b.Blocked) != 0 {
		t.Error("Reset left records")
	}
	b.Do(httpmodel.Request{Method: "GET", URL: "https://a.com/"}, "https://a.com/", httpmodel.PhaseHomepage, "", httpmodel.Response{})
	if len(b.Records[0].Request.Cookies) != 0 {
		t.Error("Reset left cookies")
	}
}

// TestPageMemo switches pages A, B, A and then to a malformed URL: the
// memo of the last page must never answer for another page.
func TestPageMemo(t *testing.T) {
	b := New(Firefox88(), nil)
	s := leakySite()
	pageA := s.PageURL("/account/signup?email=secret%40x.com")
	pageB := "https://Shop.Example.co.jp:8443/cart"
	for _, c := range []struct {
		page, host, origin string
	}{
		{pageA, "www.urbanmarket.com", "https://www.urbanmarket.com/"},
		{pageB, "shop.example.co.jp", "https://Shop.Example.co.jp:8443/"},
		{pageA, "www.urbanmarket.com", "https://www.urbanmarket.com/"},
		{"https://exa mple.com/", "", ""},
		{pageA, "www.urbanmarket.com", "https://www.urbanmarket.com/"},
	} {
		if host, origin := b.page(c.page); host != c.host || origin != c.origin {
			t.Errorf("page(%q) = %q, %q; want %q, %q", c.page, host, origin, c.host, c.origin)
		}
		if got := b.refererFrom(s, c.page, "www.facebook.com"); got != c.origin {
			t.Errorf("cross-site referer from %q = %q, want %q", c.page, got, c.origin)
		}
	}
}

// hostLog records the host of every fetch the browser lets through.
type hostLog struct{ hosts []string }

func (l *hostLog) Fetch(host string) error {
	l.hosts = append(l.hosts, host)
	return nil
}

// TestRequestMemoMatchesMemoFree replays requests that share an
// authority but differ in path, query, fragment, port, case, scheme or
// a bad escape — plus URLs with no authority that spell one — through
// a browser with its session memos and through one whose memos are
// emptied before every request, so each lookup is computed afresh. Both
// must fetch the same hosts (those of Request.Host), attach the same
// cookies and referers, store the same jar and block the same requests.
func TestRequestMemoMatchesMemoFree(t *testing.T) {
	const page = "https://www.shop.com/account"
	urls := []string{
		"https://www.shop.com/a",
		"https://www.shop.com/p%zz",
		"www.shop.com",
		"https://www.shop.com/b?x=1&e=%40",
		"https://www.shop.com/c#frag",
		"https://www.shop.com/c#f%zz",
		"https://WWW.Shop.COM/d",
		"https://www.shop.com:8443/e",
		"http://www.shop.com/f",
		"https://pixel.tracker.net/p",
		"pixel.tracker.net",
		"https://pixel.tracker.net/%zz",
		"https://pixel.tracker.net/p?u=%zz",
		"https://PIXEL.tracker.net:443/q",
		"https://u@pixel.tracker.net/r",
		"https://smetrics.shop.com/b/ss",
		"https://cdn.other.org/lib.js",
		"mailto:a@pixel.tracker.net",
		"https://mailto:a@pixel.tracker.net/",
	}
	cookies := []httpmodel.Cookie{
		{Name: "fp", Value: "1", Domain: "shop.com"},
		{Name: "sub", Value: "2", Domain: "smetrics.shop.com"},
		{Name: "tp", Value: "3", Domain: "tracker.net"},
		{Name: "pix", Value: "4", Domain: "pixel.tracker.net"},
		{Name: "org", Value: "5", Domain: "other.org"},
	}
	run := func(profile Profile, memoFree bool) (*Browser, []string) {
		b := New(profile, nil)
		log := &hostLog{}
		b.Transport = log
		b.SetCookie(cookies[0])
		for round := 0; round < 2; round++ {
			for i, u := range urls {
				if memoFree {
					clear(b.hosts)
					clear(b.sites)
				}
				// Every third response tries to set a cookie, so the
				// cookie-setting policy is replayed too.
				var resp httpmodel.Response
				if i%3 == round {
					resp.SetCookies = []httpmodel.Cookie{cookies[(i+round)%len(cookies)]}
				}
				req := httpmodel.Request{Method: "GET", URL: u, Type: httpmodel.TypeImage}
				b.Do(req, page, httpmodel.PhaseHomepage, "", resp)
			}
		}
		return b, log.hosts
	}
	for _, profile := range []Profile{
		Chrome93(), Safari14(),
		Firefox88ETP(map[string]bool{"tracker.net": true}),
		Brave129(map[string]bool{"other.org": true}),
	} {
		memo, memoHosts := run(profile, false)
		ref, refHosts := run(profile, true)
		name := profile.Name + " " + profile.Version
		if !reflect.DeepEqual(memoHosts, refHosts) {
			t.Errorf("%s: fetched hosts\n%q\nwant\n%q", name, memoHosts, refHosts)
		}
		if !reflect.DeepEqual(memo.Records, ref.Records) {
			t.Errorf("%s: records differ from the memo-free run", name)
		}
		if !reflect.DeepEqual(memo.jar, ref.jar) || !reflect.DeepEqual(memo.Blocked, ref.Blocked) {
			t.Errorf("%s: jar or blocks differ from the memo-free run", name)
		}
		for i, r := range memo.Records {
			if want := r.Request.Host(); memoHosts[i] != want {
				t.Errorf("%s: request %s fetched host %q, want Request.Host() %q", name, r.Request.URL, memoHosts[i], want)
			}
		}
	}
}

// tailSite is a background universe site: no auth flow, one CDN tag.
func tailSite() *site.Site {
	return &site.Site{
		Domain:   "quietharbor.net",
		Obstacle: site.ObstacleNoAuth,
		Tags: []site.Tag{{
			Receiver: "jscdn-static.net", Host: "cdn.jscdn-static.net",
			Path: "/lib/app.js", Type: httpmodel.TypeScript, OnSubpages: true,
		}},
	}
}

// BenchmarkVisitPage renders one homepage per op in a fresh session, as
// the crawl does per site.
func BenchmarkVisitPage(b *testing.B) {
	for _, c := range []struct {
		name string
		site *site.Site
	}{{"tail", tailSite()}, {"shopping", leakySite()}} {
		b.Run(c.name, func(b *testing.B) {
			br := New(Firefox88(), nil)
			page := c.site.BaseURL()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br.VisitPage(c.site, page, httpmodel.PhaseHomepage, false)
				br.Reset()
			}
		})
	}
}
