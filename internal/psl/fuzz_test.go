package psl

import "testing"

// FuzzPublicSuffix ensures arbitrary host strings never panic the
// algorithm, that Normalize is idempotent, and that ETLDPlusOne output,
// when present, ends with the public suffix.
func FuzzPublicSuffix(f *testing.F) {
	f.Add("www.example.com")
	f.Add("a.b.c.co.jp")
	f.Add("..")
	f.Add("")
	f.Add("x.ck")
	f.Add("www.ck")
	f.Add(":8080")
	f.Add("0..")
	f.Add("a.com:80.")
	f.Fuzz(func(t *testing.T, host string) {
		if len(host) > 1<<10 {
			return
		}
		if n := Normalize(host); Normalize(n) != n {
			t.Fatalf("Normalize(%q) = %q, but Normalize of that is %q", host, n, Normalize(n))
		}
		suffix := PublicSuffix(host)
		e, err := ETLDPlusOne(host)
		if err == nil {
			if suffix == "" {
				t.Fatalf("ETLDPlusOne(%q) = %q but no public suffix", host, e)
			}
			if e != suffix && !hasSuffix(e, "."+suffix) {
				t.Fatalf("ETLDPlusOne(%q) = %q does not end with suffix %q", host, e, suffix)
			}
		}
	})
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// oracleLists are the lists the walk is compared on: both embedded lists
// and a custom one with a single-label exception rule and wildcard and
// exception rules nested under each other.
var oracleLists = map[string]*List{
	"default": Default(),
	"private": DefaultWithPrivate(),
	"custom": MustParse(`
com
!x
*.y
!z.y
*.w.y
!v.w.y
u.v.w.y
*.t.u.v.w.y
`),
}

// FuzzWalkMatchesOracle checks the allocation-free label walk against
// the Split/Join oracle: the same public suffix, the same eTLD+1 or the
// same error, and the same same-site verdict, on every list.
func FuzzWalkMatchesOracle(f *testing.F) {
	for _, h := range []string{
		"www.example.com", "cdn.shop.example.co.jp", "a.herokuapp.com",
		"x", "a.x", "b.a.x", "y", "q.y", "p.q.y", "z.y", "a.z.y",
		"w.y", "q.w.y", "p.q.w.y", "v.w.y", "a.v.w.y", "u.v.w.y",
		"a.u.v.w.y", "t.u.v.w.y", "s.t.u.v.w.y", "r.s.t.u.v.w.y",
		"www.ck", "a.www.ck", "0..", "a.com:80.", ".com", "A.COM.",
	} {
		f.Add(h, "www.example.com")
	}
	f.Add("a.b.foo.ck", "c.b.foo.ck")
	f.Fuzz(func(t *testing.T, a, b string) {
		// A DNS name is at most 253 bytes; longer inputs only slow the
		// quadratic oracle down.
		if len(a) > 256 || len(b) > 256 {
			return
		}
		for name, l := range oracleLists {
			for _, h := range []string{a, b} {
				if got, want := l.PublicSuffix(h), oraclePublicSuffix(l, h); got != want {
					t.Fatalf("%s: PublicSuffix(%q) = %q, oracle %q", name, h, got, want)
				}
				got, err := l.ETLDPlusOne(h)
				want, werr := oracleETLDPlusOne(l, h)
				if got != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("%s: ETLDPlusOne(%q) = %q, %v; oracle %q, %v", name, h, got, err, want, werr)
				}
			}
			if got, want := l.SameSite(a, b), oracleSameSite(l, a, b); got != want {
				t.Fatalf("%s: SameSite(%q, %q) = %v, oracle %v", name, a, b, got, want)
			}
		}
	})
}
