package httpmodel

import "strings"

// AuthorityKey extracts the authority component of rawurl the way
// url.Parse delimits it, as a memo key for Request.Host: fragment cut at
// the first '#', query at the first '?', authority after "://" up to
// the next '/'. The scheme must be valid for "://" to act as the
// authority marker. ok is false when the URL has no such authority or
// its parse success can hinge on more than the authority; key is then
// rawurl itself.
//
// Two URLs whose keys are equal and both ok have equal Host(). Host() is
// "" whenever url.Parse fails, and parse success can hinge on parts
// outside the authority: an invalid escape in the path, userinfo, or
// fragment (query escapes are not validated at parse time), or a control
// byte anywhere. So any URL with '%' outside its query or a control byte
// is self-keyed (ok false) — same string, same Host(), always sound.
// A self-keyed key can equal an authority key: "a.b" (no authority,
// Host "") and "https://a.b/" (Host "a.b") both yield "a.b". A memo
// keyed by AuthorityKey must therefore hold ok keys only and compute
// Host() directly for the rest.
func AuthorityKey(rawurl string) (key string, ok bool) {
	s := rawurl
	if i := strings.IndexByte(s, '#'); i >= 0 {
		if strings.IndexByte(s[i+1:], '%') >= 0 {
			return rawurl, false
		}
		s = s[:i]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i]
	}
	if strings.IndexByte(s, '%') >= 0 || hasCTL(rawurl) {
		return rawurl, false
	}
	i := strings.Index(s, "://")
	if i < 0 || !validScheme(s[:i]) {
		return rawurl, false
	}
	rest := s[i+3:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j], true
	}
	return rest, true
}

// hasCTL reports whether s contains a byte url.Parse rejects outright
// (ASCII control characters, including DEL).
func hasCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// validScheme mirrors net/url's scheme grammar: ALPHA *(ALPHA / DIGIT /
// "+" / "-" / ".").
func validScheme(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9' || c == '+' || c == '-' || c == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
