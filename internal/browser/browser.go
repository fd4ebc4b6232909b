// Package browser simulates the browsers of §7.1: a cookie jar, referer
// emission, subresource fetching, and per-profile privacy policy —
// vanilla Chrome/Opera, Safari's ITP (third-party cookie blocking),
// Firefox's ETP (third-party cookie blocking for known trackers), and
// Brave's Shields (request blocking with CNAME uncloaking).
//
// The engine renders a site page by issuing the document request, a
// first-party asset, and each embedded tag's resource request; the
// crawler drives authentication events that make tags emit leak
// requests. Everything the browser lets through is appended to Records —
// the dataset §4's detection pipeline runs on.
package browser

import (
	"context"
	"net/url"
	"sort"
	"strings"

	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/obs"
	"piileak/internal/pii"
	"piileak/internal/psl"
	"piileak/internal/site"
)

// Profile is a browser's privacy configuration.
type Profile struct {
	// Name and Version identify the browser (reporting only).
	Name    string
	Version string
	// BlockThirdPartyCookies stops cookies on cross-site requests
	// (Safari ITP; Brave).
	BlockThirdPartyCookies bool
	// ETPTrackerCookies stops cookies on cross-site requests to known
	// trackers only (Firefox ETP).
	ETPTrackerCookies bool
	// Shields holds registrable domains whose requests are blocked
	// outright (Brave). nil means no request blocking.
	Shields map[string]bool
	// UncloakCNAME applies Shields to the CNAME-resolved effective
	// party, not just the literal request host (Brave ≥ 1.25).
	UncloakCNAME bool
	// KnownTrackers backs ETPTrackerCookies.
	KnownTrackers map[string]bool
}

// Chrome93 returns the vanilla Chrome profile of §7.1.
func Chrome93() Profile { return Profile{Name: "Chrome", Version: "93"} }

// Opera79 returns the vanilla Opera profile.
func Opera79() Profile { return Profile{Name: "Opera", Version: "79.0"} }

// Safari14 returns Safari with ITP (default-on).
func Safari14() Profile {
	return Profile{Name: "Safari", Version: "14.03", BlockThirdPartyCookies: true}
}

// Firefox88 returns the study's vanilla collection profile (ETP off).
func Firefox88() Profile { return Profile{Name: "Firefox", Version: "88"} }

// Firefox88ETP returns Firefox with Enhanced Tracking Protection,
// restricting cookies for the given known-tracker domains.
func Firefox88ETP(knownTrackers map[string]bool) Profile {
	return Profile{
		Name: "Firefox", Version: "88+ETP",
		ETPTrackerCookies: true,
		KnownTrackers:     knownTrackers,
	}
}

// Brave129 returns Brave with Shields blocking the given registrable
// domains, including over CNAME cloaking.
func Brave129(shields map[string]bool) Profile {
	return Profile{
		Name: "Brave", Version: "1.29.81",
		BlockThirdPartyCookies: true,
		Shields:                shields,
		UncloakCNAME:           true,
	}
}

// Transport models the network path of a fetch. A nil Transport (the
// default) always succeeds instantly — the fault-free simulation. The
// crawler installs a resilient transport (retry + backoff + circuit
// breaker over injected faults); an error from Fetch means the request
// definitively failed after whatever retrying the transport did.
type Transport interface {
	Fetch(host string) error
}

// Browser is one browsing session: a profile plus cookie jar and the
// captured traffic.
type Browser struct {
	Profile    Profile
	Classifier *dnssim.Classifier

	// Ctx, when non-nil, cancels the fetch loop: once it is done every
	// request fails as an undelivered fetch, so a cancelled crawl's
	// flow degrades and finishes instead of issuing further traffic.
	// Reset does not clear it — cancellation outlives sessions.
	Ctx context.Context

	// Transport, when non-nil, gates every request on a (possibly
	// faulty) network path.
	Transport Transport

	// Obs, when non-nil, counts issued/blocked/failed requests. Like
	// Ctx, Reset does not clear it — the observer outlives sessions.
	Obs *obs.Run

	// Records is the captured traffic, in request order.
	Records []httpmodel.Record
	// Blocked counts requests the profile blocked, by receiver
	// registrable domain.
	Blocked map[string]int
	// FailedFetches counts requests the transport failed to deliver
	// (after its internal retrying); those exchanges are not recorded.
	FailedFetches int

	jar map[string][]httpmodel.Cookie // cookie domain -> cookies
	seq int

	// lastPage memoises the parse of the last page URL: every request
	// a page issues needs its host and origin. Each crawl worker owns
	// its Browser, so the memos need no lock.
	lastPage pageInfo
	// hosts memoises Request.Host by httpmodel.AuthorityKey, and sites
	// each host's registrable domain ("" when it has none), for the
	// session: a page's tags hit the same few endpoints many times.
	// Reset clears both.
	hosts map[string]string
	sites map[string]string
}

// pageInfo is a page URL's parse: the lower-cased hostname and the
// origin referer, both "" when the URL does not parse.
type pageInfo struct {
	url          string
	parsed       bool
	host, origin string
}

// New creates a browsing session. zone supplies CNAME records for
// uncloaking; it may be nil when no cloaked tags exist.
func New(profile Profile, zone *dnssim.Zone) *Browser {
	if zone == nil {
		zone = dnssim.NewZone()
	}
	return &Browser{
		Profile:    profile,
		Classifier: dnssim.NewClassifier(zone),
		Blocked:    map[string]int{},
		jar:        map[string][]httpmodel.Cookie{},
		hosts:      map[string]string{},
		sites:      map[string]string{},
	}
}

// Reset clears cookies, captured traffic, the transport and the
// host memos (a fresh session on a fresh connection).
func (b *Browser) Reset() {
	b.Records = nil
	b.Blocked = map[string]int{}
	b.FailedFetches = 0
	b.Transport = nil
	b.jar = map[string][]httpmodel.Cookie{}
	b.seq = 0
	clear(b.hosts)
	clear(b.sites)
}

// hostOf is req.Host(), memoised by the URL's authority.
func (b *Browser) hostOf(req *httpmodel.Request) string {
	k, ok := httpmodel.AuthorityKey(req.URL)
	if !ok {
		return req.Host()
	}
	h, hit := b.hosts[k]
	if !hit {
		h = req.Host()
		b.hosts[k] = h
	}
	return h
}

// siteOf is the classifier's PSL ETLDPlusOne of host, memoised by
// host; "" means host has no registrable domain (a successful lookup
// is never empty).
func (b *Browser) siteOf(host string) string {
	e, hit := b.sites[host]
	if !hit {
		e, _ = b.Classifier.PSL.ETLDPlusOne(host)
		b.sites[host] = e
	}
	return e
}

// sameSite is psl.(*List).SameSite over the memoised sites: both hosts
// have a registrable domain and it is the same one.
func (b *Browser) sameSite(x, y string) bool {
	e := b.siteOf(x)
	return e != "" && e == b.siteOf(y)
}

// SetCookie stores a cookie in the jar.
func (b *Browser) SetCookie(c httpmodel.Cookie) {
	d := psl.Normalize(c.Domain)
	for i, old := range b.jar[d] {
		if old.Name == c.Name {
			b.jar[d][i] = c
			return
		}
	}
	b.jar[d] = append(b.jar[d], c)
}

// cookiesFor returns the cookies the profile allows on a request to host
// from a page on pageHost.
func (b *Browser) cookiesFor(host, pageHost string) []httpmodel.Cookie {
	var out []httpmodel.Cookie
	if !b.sameSite(pageHost, host) {
		if b.Profile.BlockThirdPartyCookies {
			return nil
		}
		if b.Profile.ETPTrackerCookies {
			if e := b.siteOf(host); e != "" && b.Profile.KnownTrackers[e] {
				return nil
			}
		}
	}
	// Match domains first and walk them sorted: the jar is a map, and
	// when several domains cover the host the emitted cookie order
	// must not follow randomized map iteration.
	var domains []string
	for domain := range b.jar {
		if host == domain || strings.HasSuffix(host, "."+domain) {
			domains = append(domains, domain)
		}
	}
	sort.Strings(domains)
	for _, domain := range domains {
		out = append(out, b.jar[domain]...)
	}
	return out
}

// allowed applies Shields: false means the request is blocked. The
// receiver is the registrable domain charged for the block.
func (b *Browser) allowed(reqHost string) (receiver string, ok bool) {
	if b.Profile.Shields == nil {
		return "", true
	}
	party := reqHost
	if b.Profile.UncloakCNAME {
		party = b.Classifier.EffectiveParty(reqHost)
	} else if e := b.siteOf(reqHost); e != "" {
		party = e
	}
	if b.Profile.Shields[party] {
		return party, false
	}
	return "", true
}

// Do issues one request: applies shields and cookie policy, attaches the
// referer, records the exchange, and returns whether it went through.
func (b *Browser) Do(req httpmodel.Request, page string, phase httpmodel.Phase, referer string, resp httpmodel.Response) bool {
	host := b.hostOf(&req)
	if receiver, ok := b.allowed(host); !ok {
		b.Blocked[receiver]++
		b.Obs.Count(obs.MetricBrowserBlocked, 1)
		return false
	}
	if b.Ctx != nil && b.Ctx.Err() != nil {
		// The run is cancelled: the request never leaves the browser.
		// It counts as a failed fetch, but the crawl engine discards
		// the in-flight site's entry anyway.
		b.FailedFetches++
		b.Obs.Count(obs.MetricFetchFailures, 1)
		return false
	}
	if b.Transport != nil {
		if err := b.Transport.Fetch(host); err != nil {
			b.FailedFetches++
			b.Obs.Count(obs.MetricFetchFailures, 1)
			return false
		}
	}
	pageHost, _ := b.page(page)
	if referer != "" {
		if req.Headers == nil {
			req.Headers = map[string]string{}
		}
		req.Headers["Referer"] = referer
	}
	req.Cookies = b.cookiesFor(host, pageHost)

	if resp.Status == 0 {
		resp.Status = 200
	}
	for _, c := range resp.SetCookies {
		if b.canSetCookie(c, pageHost) {
			b.SetCookie(c)
		}
	}

	b.seq++
	b.Obs.Count(obs.MetricBrowserRequests, 1)
	b.Records = append(b.Records, httpmodel.Record{
		Seq:      b.seq,
		Page:     page,
		Phase:    phase,
		Request:  req,
		Response: resp,
	})
	return true
}

func (b *Browser) canSetCookie(c httpmodel.Cookie, pageHost string) bool {
	if b.sameSite(pageHost, c.Domain) {
		return true
	}
	if b.Profile.BlockThirdPartyCookies {
		return false
	}
	if b.Profile.ETPTrackerCookies {
		if e := b.siteOf(c.Domain); e != "" && b.Profile.KnownTrackers[e] {
			return false
		}
	}
	return true
}

// page returns pageURL's lower-cased hostname and its origin referer
// ("scheme://host/"), both "" when the URL does not parse.
func (b *Browser) page(pageURL string) (host, origin string) {
	if !b.lastPage.parsed || b.lastPage.url != pageURL {
		b.lastPage = pageInfo{url: pageURL, parsed: true}
		if u, err := url.Parse(pageURL); err == nil {
			b.lastPage.host = strings.ToLower(u.Hostname())
			b.lastPage.origin = u.Scheme + "://" + u.Host + "/"
		}
	}
	return b.lastPage.host, b.lastPage.origin
}

// refererFrom computes the Referer value a subresource request gets
// from its page: the full URL when the page is same-origin with the
// target or the site opted into unsafe-url (the GET-form sites), the
// origin otherwise — Firefox 88's default policy.
func (b *Browser) refererFrom(s *site.Site, pageURL, targetHost string) string {
	pageHost, origin := b.page(pageURL)
	if b.sameSite(pageHost, targetHost) || s.SignupGET {
		// Badly-coded GET-form sites also ship
		// `Referrer-Policy: unsafe-url`, which is what makes their
		// accidental leak observable cross-origin (§4.1).
		return pageURL
	}
	return origin
}

// VisitPage renders a page: the document request, one first-party asset,
// and every embedded tag's resource load. subpage selects the §5.2
// persistence context (only OnSubpages tags load). It reports whether
// the document itself arrived; when it did not (a transport failure),
// no subresources load and the caller's flow is broken at this step.
func (b *Browser) VisitPage(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool) bool {
	if !b.Do(httpmodel.Request{
		Method: "GET", URL: pageURL, Type: httpmodel.TypeDocument,
	}, pageURL, phase, "", httpmodel.Response{}) {
		return false
	}
	b.RenderSubresources(s, pageURL, phase, subpage)
	return true
}

// RenderSubresources loads a page's asset and tags without re-issuing
// the document request — used after form submissions, where the
// navigation request already happened.
func (b *Browser) RenderSubresources(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool) {
	asset := httpmodel.Request{
		Method: "GET", URL: s.PageURL("/static/app.js"), Type: httpmodel.TypeScript, Initiator: pageURL,
	}
	b.Do(asset, pageURL, phase, b.refererFrom(s, pageURL, b.hostOf(&asset)), httpmodel.Response{})

	for _, tag := range s.TagsOn(subpage) {
		req := tag.LoadRequest(pageURL)
		b.Do(req, pageURL, phase, b.refererFrom(s, pageURL, b.hostOf(&req)), httpmodel.Response{})
	}
}

// FireAuthEvent makes every action-bearing tag on the page emit its leak
// requests for an authentication event. Cookie-channel actions set their
// identifying cookie first, then issue the tag's beacon so the cookie
// travels. times > 1 repeats the emission (subpage view + interaction).
func (b *Browser) FireAuthEvent(s *site.Site, pageURL string, phase httpmodel.Phase, subpage bool, p pii.Persona, times int) {
	if times < 1 {
		times = 1
	}
	for _, tag := range s.TagsOn(subpage) {
		if len(tag.Actions) == 0 {
			continue
		}
		for rep := 0; rep < times; rep++ {
			for _, action := range tag.Actions {
				req, cookies := tag.LeakRequest(action, pageURL, p)
				for _, c := range cookies {
					// Identifying cookies are minted by script on
					// the (cloaked, first-party) tag host.
					b.SetCookie(c)
				}
				b.Do(req, pageURL, phase, b.refererFrom(s, pageURL, b.hostOf(&req)), httpmodel.Response{})
			}
		}
	}
}

// SubmitForm issues the signup/signin form submission as a top-level
// navigation. It reports whether the submission reached the server —
// false means the transport failed the navigation after retrying.
func (b *Browser) SubmitForm(s *site.Site, action string, fields []site.FormField, phase httpmodel.Phase, fromPage string) bool {
	u, err := url.Parse(action)
	if err != nil {
		return false
	}
	req := httpmodel.Request{Method: "POST", URL: action, Type: httpmodel.TypeDocument, Initiator: fromPage}
	if u.RawQuery != "" {
		// A GET form: fields ride in the URL.
		req.Method = "GET"
	} else {
		vals := url.Values{}
		for _, f := range fields {
			vals.Set(f.Name, f.Value)
		}
		req.Body = []byte(vals.Encode())
		req.BodyType = "application/x-www-form-urlencoded"
	}
	resp := httpmodel.Response{
		Status: 302,
		SetCookies: []httpmodel.Cookie{{
			Name: "session", Value: "sess-" + s.Domain, Domain: s.Host(),
		}},
	}
	return b.Do(req, action, phase, fromPage, resp)
}
