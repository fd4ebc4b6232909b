// Package psl implements the Public Suffix List algorithm the paper uses
// to split first-party from third-party resources (§4.1): rules,
// wildcard rules (*.ck) and exception rules (!www.ck), public-suffix and
// eTLD+1 extraction, and site-equality ("same registrable domain")
// classification.
//
// The embedded default list is a curated subset of the real PSL covering
// every suffix the synthetic ecosystem uses, plus the private-section
// entries (herokuapp.com, github.io, ...) that matter for the paper's
// Brave analysis (§7.1, footnote 4). Custom lists can be parsed from the
// standard PSL text format for tests and for users with their own data.
package psl

import (
	"fmt"
	"strings"
)

// List is a parsed public suffix list. The zero value matches nothing;
// use Parse or Default.
type List struct {
	// rules maps a rule's domain form (without "*." or "!") to its kind.
	rules map[string]ruleKind
}

type ruleKind uint8

const (
	ruleNormal ruleKind = iota
	ruleWildcard
	ruleException
)

// Parse reads the standard PSL text format: one rule per line,
// "//" comments, blank lines ignored. Both the ICANN and private sections
// are treated alike, which matches how tracker-blocking tools use the
// list.
func Parse(text string) (*List, error) {
	l := &List{rules: make(map[string]ruleKind)}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "!"):
			l.rules[line[1:]] = ruleException
		case strings.HasPrefix(line, "*."):
			l.rules[line[2:]] = ruleWildcard
		default:
			if strings.ContainsAny(line, " \t") {
				return nil, fmt.Errorf("psl: malformed rule on line %d: %q", lineNo+1, line)
			}
			l.rules[line] = ruleNormal
		}
	}
	return l, nil
}

// MustParse is Parse for static rule text; it panics on error.
func MustParse(text string) *List {
	l, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return l
}

// PublicSuffix returns the public suffix of domain per the PSL algorithm:
// the longest matching rule wins, wildcard rules match one extra leading
// label, exception rules override wildcards, and an unmatched domain
// falls back to its last label.
func (l *List) PublicSuffix(domain string) string {
	return l.publicSuffix(Normalize(domain))
}

// publicSuffix is PublicSuffix over an already normalised host. It walks
// label boundaries by index and returns a substring of host, so it never
// allocates.
func (l *List) publicSuffix(host string) string {
	if host == "" || host[0] == '.' || host[len(host)-1] == '.' || strings.Contains(host, "..") {
		return "" // empty label: not a valid host
	}
	// Walk suffixes from longest to shortest so "longest rule wins".
	for suffix := host; ; {
		dot := strings.IndexByte(suffix, '.')
		if kind, ok := l.rules[suffix]; ok {
			if kind == ruleException {
				// The exception's own suffix is one label shorter.
				if dot < 0 {
					return ""
				}
				return suffix[dot+1:]
			}
			// A normal rule, or a wildcard matched as its own name:
			// "*.ck" also implies "anything.ck" is a suffix, so the
			// bare name is the suffix of a longer domain.
			return suffix
		}
		if dot < 0 {
			return suffix // no rule matched: the last label
		}
		// Wildcard: "*.<suffix-without-first-label>". Exception rules
		// are checked first above, so this label is covered by it.
		parent := suffix[dot+1:]
		if kind, ok := l.rules[parent]; ok && kind == ruleWildcard {
			return suffix
		}
		suffix = parent
	}
}

// ETLDPlusOne returns the registrable domain (public suffix plus one
// label). It returns an error when the domain is itself a public suffix
// or empty.
func (l *List) ETLDPlusOne(domain string) (string, error) {
	host := Normalize(domain)
	e, ok := l.etldPlusOne(host)
	if !ok {
		return "", fmt.Errorf("psl: %q has no registrable domain", host)
	}
	return e, nil
}

// etldPlusOne is ETLDPlusOne over an already normalised host, without
// the error value: the result is a substring of host.
func (l *List) etldPlusOne(host string) (string, bool) {
	suffix := l.publicSuffix(host)
	if suffix == "" || suffix == host {
		return "", false
	}
	// suffix is a label-aligned tail of host: keep one more label.
	rest := host[:len(host)-len(suffix)-1]
	return host[strings.LastIndexByte(rest, '.')+1:], true
}

// SameSite reports whether two hosts share a registrable domain — the
// paper's first-party test. Hosts that are bare public suffixes are never
// same-site with anything.
func (l *List) SameSite(a, b string) bool {
	ea, okA := l.etldPlusOne(Normalize(a))
	eb, okB := l.etldPlusOne(Normalize(b))
	return okA && okB && ea == eb
}

// IsThirdParty reports whether requestHost is a third-party resource for
// a page on siteHost (§4.1's first split, before CNAME uncloaking).
func (l *List) IsThirdParty(siteHost, requestHost string) bool {
	return !l.SameSite(siteHost, requestHost)
}

// Normalize lower-cases a host and strips surrounding whitespace,
// trailing dots and a port until none is left, so it is idempotent:
// Normalize(Normalize(h)) == Normalize(h).
func Normalize(host string) string {
	host = strings.ToLower(host)
	for {
		prev := host
		host = strings.TrimSuffix(stripPort(strings.TrimSpace(host)), ".")
		if host == prev {
			return host
		}
	}
}

// stripPort drops a trailing ":digits". IPv6 literals are not used in
// this simulator.
func stripPort(host string) string {
	i := strings.LastIndexByte(host, ':')
	if i < 0 || i+1 == len(host) {
		return host
	}
	for j := i + 1; j < len(host); j++ {
		if host[j] < '0' || host[j] > '9' {
			return host
		}
	}
	return host[:i]
}

// defaultPSL is the embedded ICANN-section rule set. The paper's party
// classification operates at this granularity (it reports herokuapp.com —
// a private-section suffix — as a single receiver domain), so the default
// list excludes the private section; DefaultWithPrivate adds it for
// callers that want hosting customers separated.
const defaultPSL = `
// ---- ICANN section (subset) ----
com
net
org
edu
gov
info
biz
io
co
ai
jp
co.jp
ne.jp
or.jp
ac.jp
uk
co.uk
org.uk
ac.uk
gov.uk
au
com.au
net.au
org.au
br
com.br
net.br
in
co.in
net.in
de
fr
it
nl
ru
cn
com.cn
net.cn
kr
co.kr
tv
me
cc
app
dev
shop
store
online
site
xyz
club
// Wildcard + exception examples, kept for PSL-algorithm fidelity.
*.ck
!www.ck
*.bd
`

// privatePSL holds the private-section entries (hosting providers whose
// customers are mutually third-party).
const privatePSL = `
// ---- Private section (subset) ----
herokuapp.com
github.io
blogspot.com
cloudfront.net
azurewebsites.net
web.app
firebaseapp.com
`

var (
	defaultList        = MustParse(defaultPSL)
	defaultWithPrivate = MustParse(defaultPSL + privatePSL)
)

// Default returns the embedded ICANN-section list.
func Default() *List { return defaultList }

// DefaultWithPrivate returns the embedded list including the private
// section.
func DefaultWithPrivate() *List { return defaultWithPrivate }

// PublicSuffix applies the embedded list.
func PublicSuffix(domain string) string { return defaultList.PublicSuffix(domain) }

// ETLDPlusOne applies the embedded list.
func ETLDPlusOne(domain string) (string, error) { return defaultList.ETLDPlusOne(domain) }

// SameSite applies the embedded list.
func SameSite(a, b string) bool { return defaultList.SameSite(a, b) }

// IsThirdParty applies the embedded list.
func IsThirdParty(siteHost, requestHost string) bool {
	return defaultList.IsThirdParty(siteHost, requestHost)
}
