package crawler

import (
	"piileak/internal/browser"
	"piileak/internal/formmatch"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// This file implements the OpenWPM-style automated crawler the paper
// deliberately did NOT use (§3.2): it fills forms with keyword
// heuristics, cannot pass bot detection, and cannot follow e-mailed
// confirmation links. Experiment X4 compares its coverage against the
// manual flow, operationalizing the paper's claim that "these sites can
// not be crawled automatically".

// Automation-specific outcomes.
const (
	// OutcomeAutoBotDetected: the site's bot check caught the crawler.
	OutcomeAutoBotDetected Outcome = "automation_bot_detected"
	// OutcomeAutoFormUnmatched: the form-filling heuristics could not
	// match every required input.
	OutcomeAutoFormUnmatched Outcome = "automation_form_unmatched"
	// OutcomeAutoNoConfirm: sign-up succeeded but the account was
	// never activated (no mailbox integration), so the signed-in part
	// of the flow is missing.
	OutcomeAutoNoConfirm Outcome = "automation_confirm_unreachable"
)

// CrawlAutomated runs the §3.2 flow the way an automated crawler would,
// over every candidate site.
func CrawlAutomated(eco *webgen.Ecosystem, profile browser.Profile) *Dataset {
	ds := NewDataset(eco, profile)
	ds.Browser += " (automated)"
	matcher := formmatch.NewMatcher()
	b := browser.New(profile, eco.Zone)
	for _, s := range eco.Sites {
		ds.Crawls = append(ds.Crawls, autoCrawlOne(b, s, eco.Persona, matcher))
		for recv, n := range b.Blocked {
			ds.Blocked[recv] += n
		}
		b.Reset()
	}
	return ds
}

func autoCrawlOne(b *browser.Browser, s *site.Site, p pii.Persona, m *formmatch.Matcher) SiteCrawl {
	crawl := SiteCrawl{
		Domain:       s.Domain,
		Rank:         s.Rank,
		Obstacle:     s.Obstacle,
		EmailConfirm: s.EmailConfirm,
		BotDetection: s.BotDetection,
	}

	// The funnel obstacles hit automation exactly as they hit humans.
	switch s.Obstacle {
	case site.ObstacleUnreachable:
		crawl.Outcome = OutcomeUnreachable
		return crawl
	case site.ObstacleNoAuth:
		b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
		crawl.Outcome = OutcomeNoAuthFlow
		crawl.Records = b.Records
		return crawl
	case site.ObstaclePhoneVerify, site.ObstacleIDDocuments, site.ObstacleRegionBlock:
		b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
		b.VisitPage(s, s.PageURL("/account/signup"), httpmodel.PhaseSignup, false)
		crawl.Outcome = OutcomeSignupBlocked
		crawl.Records = b.Records
		return crawl
	}

	b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
	signupPage := s.PageURL("/account/signup")
	b.VisitPage(s, signupPage, httpmodel.PhaseSignup, false)

	// Bot detection catches headless automation (§3.2: 43 sites).
	if s.BotDetection {
		crawl.Outcome = OutcomeAutoBotDetected
		crawl.Records = b.Records
		return crawl
	}
	// Keyword heuristics must match every required input.
	if !m.CanComplete(s.RequiredInputs()) {
		crawl.Outcome = OutcomeAutoFormUnmatched
		crawl.Records = b.Records
		return crawl
	}

	// Submit the form; sign-up-time tag events still fire, so partial
	// leakage is visible even where the flow cannot continue.
	action := s.SignupActionURL(p)
	resultPage := action
	if !s.SignupGET {
		resultPage = s.PageURL("/account/welcome")
	}
	b.SubmitForm(s, action, s.FormFields(p), httpmodel.PhaseSignup, signupPage)
	b.RenderSubresources(s, resultPage, httpmodel.PhaseSignup, false)
	b.FireAuthEvent(s, resultPage, httpmodel.PhaseSignup, false, p, 1)

	// No mailbox integration: confirmation-gated accounts stay
	// inactive and the signed-in flow never happens (§3.2: 68 sites).
	if s.EmailConfirm {
		crawl.Outcome = OutcomeAutoNoConfirm
		crawl.Records = b.Records
		return crawl
	}

	// Sign in, reload, subpage — as in the manual flow.
	loginPage := s.PageURL("/account/login")
	b.VisitPage(s, loginPage, httpmodel.PhaseSignin, false)
	home := s.PageURL("/account/home")
	b.SubmitForm(s, s.PageURL("/account/login/submit"), []site.FormField{
		{Name: "email", Value: p.Email},
		{Name: "password", Value: "correct-horse-battery"},
	}, httpmodel.PhaseSignin, loginPage)
	b.RenderSubresources(s, home, httpmodel.PhaseSignin, false)
	b.FireAuthEvent(s, home, httpmodel.PhaseSignin, false, p, 1)

	b.VisitPage(s, home, httpmodel.PhaseReload, false)
	b.FireAuthEvent(s, home, httpmodel.PhaseReload, false, p, 1)

	product := s.PageURL("/product/8812")
	b.VisitPage(s, product, httpmodel.PhaseSubpage, true)
	b.FireAuthEvent(s, product, httpmodel.PhaseSubpage, true, p, 2)

	crawl.Outcome = OutcomeSuccess
	crawl.Records = b.Records
	return crawl
}
