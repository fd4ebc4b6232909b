package httpmodel

import (
	"strings"
	"testing"
)

// TestAuthorityKey pins the memo key derivation against url.Parse's
// authority delimiting.
func TestAuthorityKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://a.b/c?d=1#e", "a.b"},
		{"https://a.b:8443/c", "a.b:8443"},
		{"https://u@a.b/c", "u@a.b"},
		{"https://a.b", "a.b"},
		{"https://a.b?x=1", "a.b"},
		{"https://a.b#f", "a.b"},
		{"/relative/path", "/relative/path"},
		{"mailto:a@b", "mailto:a@b"},
		{"a?b://c", "a?b://c"},     // invalid scheme: self-keyed
		{"a b://c/d", "a b://c/d"}, // invalid scheme: self-keyed
		// Escapes outside the query and control bytes decide parse
		// success, so those URLs are self-keyed; query escapes are not
		// validated by url.Parse, so they still share the authority key.
		{"https://a.b/p%zz/x", "https://a.b/p%zz/x"},
		{"https://a.b/u%40h/x", "https://a.b/u%40h/x"},
		{"https://a.b/c#f%zz", "https://a.b/c#f%zz"},
		{"https://a.b/c\x7f", "https://a.b/c\x7f"},
		{"https://a.b/c?e=%40", "a.b"},
	}
	for _, tc := range cases {
		if got, _ := AuthorityKey(tc.in); got != tc.want {
			t.Errorf("AuthorityKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestAuthorityKeySelfKeyedNotShared: a URL with no authority can spell
// another URL's authority, so ok separates the two key spaces.
func TestAuthorityKeySelfKeyedNotShared(t *testing.T) {
	for _, pair := range [][2]string{
		{"a.b", "https://a.b/c"},
		{"mailto:a@b", "https://mailto:a@b/"},
		{"a.b:8443", "https://a.b:8443/"},
	} {
		k1, ok1 := AuthorityKey(pair[0])
		k2, ok2 := AuthorityKey(pair[1])
		if k1 != k2 {
			t.Fatalf("%q and %q no longer share a key string; pick a pair that does", pair[0], pair[1])
		}
		if ok1 || !ok2 {
			t.Errorf("AuthorityKey ok = %v, %v for %q, %q; want false, true", ok1, ok2, pair[0], pair[1])
		}
	}
}

// FuzzAuthorityKeySound checks the memo's soundness condition: two URLs
// whose authority keys are equal and ok have equal Host().
func FuzzAuthorityKeySound(f *testing.F) {
	seeds := [][2]string{
		{"https://a.b/c?d=1#e", "http://a.b/x/y"},
		{"https://a.b/p%zz/x", "https://a.b/"},
		{"https://a.b/c#f%zz", "https://a.b/c#f"},
		{"https://u@a.b/c", "https://u@a.b/c%40"},
		{"https://a.b:8443/c", "HTTPS://a.b:8443"},
		{"https://a b/c", "https://a b"},
		{"https://[::1]:80/x", "https://[::1]:80"},
		{"a.b", "https://a.b/c"},
		{"mailto:a@b", "https://mailto:a@b/"},
		{"//a.b/c", "https://a.b/c"},
		{"https://a.b/c?e=%zz", "https://a.b/c?e=%40"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	// Independent strings rarely share a key, so each input also checks
	// u1 against u1's scheme and authority followed by u2 as the tail.
	f.Fuzz(func(t *testing.T, u1, u2 string) {
		checkAuthorityKeySound(t, u1, u2)
		if k, ok := AuthorityKey(u1); ok {
			end := strings.Index(u1, "://") + len("://") + len(k)
			checkAuthorityKeySound(t, u1, u1[:end]+u2)
		}
	})
}

func checkAuthorityKeySound(t *testing.T, u1, u2 string) {
	k1, ok1 := AuthorityKey(u1)
	k2, ok2 := AuthorityKey(u2)
	if !ok1 || !ok2 || k1 != k2 {
		return
	}
	r1, r2 := Request{URL: u1}, Request{URL: u2}
	if h1, h2 := r1.Host(), r2.Host(); h1 != h2 {
		t.Errorf("AuthorityKey(%q) == AuthorityKey(%q) == %q, but Host() = %q vs %q", u1, u2, k1, h1, h2)
	}
}
