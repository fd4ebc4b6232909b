package psl

import (
	"fmt"
	"strings"
)

// The oracle is the original Split/Join form of the PSL algorithm, kept
// only as the reference the index walk in psl.go is differentially tested
// against (FuzzWalkMatchesOracle). It trades allocations for obviousness:
// it splits the host into labels and joins every candidate suffix.

func oraclePublicSuffix(l *List, domain string) string {
	domain = Normalize(domain)
	if domain == "" {
		return ""
	}
	labels := strings.Split(domain, ".")
	for _, l := range labels {
		if l == "" {
			return "" // empty label: not a valid host
		}
	}
	for i := 0; i < len(labels); i++ {
		suffix := strings.Join(labels[i:], ".")
		if kind, ok := l.rules[suffix]; ok {
			if kind == ruleException {
				return strings.Join(labels[i+1:], ".")
			}
			return suffix
		}
		if i+1 <= len(labels)-1 {
			parent := strings.Join(labels[i+1:], ".")
			if kind, ok := l.rules[parent]; ok && kind == ruleWildcard {
				return suffix
			}
		}
	}
	return labels[len(labels)-1]
}

func oracleETLDPlusOne(l *List, domain string) (string, error) {
	domain = Normalize(domain)
	suffix := oraclePublicSuffix(l, domain)
	if suffix == "" || suffix == domain || domain == "" {
		return "", fmt.Errorf("psl: %q has no registrable domain", domain)
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix, nil
}

func oracleSameSite(l *List, a, b string) bool {
	ea, errA := oracleETLDPlusOne(l, a)
	eb, errB := oracleETLDPlusOne(l, b)
	return errA == nil && errB == nil && ea == eb
}
