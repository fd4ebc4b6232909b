// Package detect is the two-phase PII-leak detection engine.
//
// Phase 1 — Engine — compiles everything scan-invariant once: the
// persona's candidate-token automaton (§3.1), optional channel-specific
// token sub-automata, the public suffix list and the CNAME-uncloaking
// classifier, plus the compile-time facts the scan fast path relies on
// (whether any token could hide behind a JSON re-rendering). Engines
// are immutable and safe for concurrent use; a process-wide build cache
// keyed by (persona, CandidateConfig) means ablations, the browser
// countermeasure evaluation and concurrent tenants of one process all
// share a single compile.
//
// Phase 2 — Scanner — is the per-worker mutable half: pooled match and
// surface scratch reused across records, a Contains fast path that
// dismisses clean records without allocating, and per-site host →
// receiver memoization. Scanners come from Engine.NewScanner (one per
// detect worker) or transparently from a sync.Pool via Engine's own
// pipeline.Detector implementation.
//
// The split mirrors core.Detector's semantics exactly: for every input,
// Scanner output is byte-identical to the legacy single-phase detector
// (pinned by the cross-seed differential tests in the repo root).
package detect

import (
	"fmt"
	"strings"
	"sync"

	"piileak/internal/ahocorasick"
	"piileak/internal/core"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Config parameterizes an Engine compile.
type Config struct {
	// Candidates is the §3.1 candidate-set configuration; the zero
	// value selects the study defaults (depth 2, min length 8).
	Candidates pii.CandidateConfig
	// ChannelFilter, when non-nil, restricts which tokens each leak
	// channel probes: a token is compiled into channel k's sub-automaton
	// only if ChannelFilter(token, k) returns true. Tokens filtered out
	// of a channel are never reported there — this deliberately changes
	// detection semantics, so the default (nil) probes every token on
	// every channel and is byte-identical to the legacy detector.
	// Filtered engines bypass the shared build cache's sub-automata
	// (the candidate set itself is still cached).
	ChannelFilter func(pii.Token, httpmodel.SurfaceKind) bool
	// ConcurrentChannels scans the four leak channels of a leaky record
	// concurrently (one goroutine per channel with independent scratch).
	// Output is byte-identical to the serial scan; the win is latency on
	// large captures, not throughput, so it defaults to off.
	ConcurrentChannels bool
	// DisableCache compiles a private candidate set instead of
	// consulting the shared (persona, config) build cache. Tests use it
	// to measure cold builds.
	DisableCache bool
}

// channelAutomaton is one channel's compiled token set: either a view
// of the engine's full candidate set (the default) or a filtered
// sub-automaton with its own token table.
type channelAutomaton struct {
	full   *pii.CandidateSet
	sub    *ahocorasick.Matcher
	tokens []pii.Token
}

func (a *channelAutomaton) findInto(data []byte, sc *pii.Scratch, dst []int) []int {
	if a.full != nil {
		return a.full.FindInto(data, sc, dst)
	}
	return a.sub.FindUniqueInto(data, sc, dst)
}

func (a *channelAutomaton) tokenAt(i int) pii.Token {
	if a.full != nil {
		return a.full.TokenAt(i)
	}
	return a.tokens[i]
}

func (a *channelAutomaton) contains(data []byte) bool {
	if a.full != nil {
		return a.full.Contains(data)
	}
	return a.sub.Contains(data)
}

func (a *channelAutomaton) containsString(s string) bool {
	if a.full != nil {
		return a.full.ContainsString(s)
	}
	return a.sub.ContainsString(s)
}

func (a *channelAutomaton) size() int {
	if a.full != nil {
		return a.full.Size()
	}
	return len(a.tokens)
}

// channel indexes for the per-channel automata and scratch arrays.
const (
	chReferer = iota
	chURI
	chCookie
	chBody
	numChannels
)

func kindIndex(k httpmodel.SurfaceKind) int {
	switch k {
	case httpmodel.SurfaceReferer:
		return chReferer
	case httpmodel.SurfaceURI:
		return chURI
	case httpmodel.SurfaceCookie:
		return chCookie
	default:
		return chBody
	}
}

// Engine is the immutable, concurrency-safe compile of everything
// detection needs that does not change between scans. Build one per
// (persona, config) — or let NewEngine's shared cache do it for you —
// and share it across every detect worker, shard and tenant.
type Engine struct {
	cands *pii.CandidateSet
	list  *psl.List
	cname *dnssim.Classifier

	channels [numChannels]channelAutomaton
	// jsonLeafSafe records that no candidate token could match a
	// re-rendered JSON number or bool leaf without also appearing in
	// the raw body bytes; with it (plus a per-record backslash check)
	// a raw-body automaton miss conclusively clears a JSON payload.
	jsonLeafSafe bool
	concurrent   bool
	fromCache    bool

	pool sync.Pool
}

// NewEngine compiles (or fetches from the shared build cache) the
// detection engine for a persona. cname enables CNAME uncloaking; nil
// disables it.
func NewEngine(p pii.Persona, cname *dnssim.Classifier, cfg Config) (*Engine, error) {
	var (
		cs  *pii.CandidateSet
		hit bool
		err error
	)
	if cfg.DisableCache {
		cs, err = pii.BuildCandidates(p, cfg.Candidates)
	} else {
		cs, hit, err = cachedCandidates(p, cfg.Candidates)
	}
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	e := &Engine{
		cands:        cs,
		list:         psl.Default(),
		cname:        cname,
		jsonLeafSafe: jsonLeafSafe(cs),
		concurrent:   cfg.ConcurrentChannels,
		fromCache:    hit,
	}
	e.buildChannels(cfg.ChannelFilter)
	e.pool.New = func() any { return e.NewScanner() }
	return e, nil
}

// MustNewEngine panics on configuration errors.
func MustNewEngine(p pii.Persona, cname *dnssim.Classifier, cfg Config) *Engine {
	e, err := NewEngine(p, cname, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// buildChannels compiles the per-channel token sub-automata. Without a
// filter every channel aliases the full candidate set — no duplicated
// automaton memory and byte-identical semantics.
func (e *Engine) buildChannels(filter func(pii.Token, httpmodel.SurfaceKind) bool) {
	kinds := [numChannels]httpmodel.SurfaceKind{
		chReferer: httpmodel.SurfaceReferer,
		chURI:     httpmodel.SurfaceURI,
		chCookie:  httpmodel.SurfaceCookie,
		chBody:    httpmodel.SurfaceBody,
	}
	for ci := range e.channels {
		if filter == nil {
			e.channels[ci] = channelAutomaton{full: e.cands}
			continue
		}
		var toks []pii.Token
		var vals []string
		for _, t := range e.cands.Tokens() {
			if filter(t, kinds[ci]) {
				toks = append(toks, t)
				vals = append(vals, t.Value)
			}
		}
		e.channels[ci] = channelAutomaton{sub: ahocorasick.NewStrings(vals), tokens: toks}
	}
}

func (e *Engine) channelFor(k httpmodel.SurfaceKind) *channelAutomaton {
	return &e.channels[kindIndex(k)]
}

// Candidates returns the engine's compiled candidate set.
func (e *Engine) Candidates() *pii.CandidateSet { return e.cands }

// CNAME returns the engine's CNAME-uncloaking classifier (nil when
// uncloaking is disabled).
func (e *Engine) CNAME() *dnssim.Classifier { return e.cname }

// PSL returns the engine's public suffix list.
func (e *Engine) PSL() *psl.List { return e.list }

// FromCache reports whether the engine's candidate set came out of the
// shared build cache rather than a fresh compile.
func (e *Engine) FromCache() bool { return e.fromCache }

// ChannelTokens returns how many tokens channel k probes — the full
// candidate count unless a ChannelFilter restricted it.
func (e *Engine) ChannelTokens(k httpmodel.SurfaceKind) int {
	return e.channelFor(k).size()
}

// DetectSite scans all records of one site crawl. It is safe for
// concurrent use: each call borrows a pooled Scanner. Workers that scan
// many sites should hold their own Scanner (NewScanner) instead and
// skip the pool round-trip.
func (e *Engine) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	s := e.pool.Get().(*Scanner)
	defer e.pool.Put(s)
	return s.DetectSite(siteDomain, records)
}

// jsonLeafSafe reports that no candidate token could be produced by the
// JSON body-param re-rendering (float64 %v formatting of number leaves,
// "true"/"false" bools) without its bytes also being present verbatim
// in the raw payload. When true, a raw-body miss plus an absence of
// escape characters conclusively clears a JSON body on the fast path.
func jsonLeafSafe(cs *pii.CandidateSet) bool {
	for _, t := range cs.Tokens() {
		if floatRenderable(t.Value) ||
			strings.Contains("true", t.Value) || strings.Contains("false", t.Value) {
			return false
		}
	}
	return true
}

// floatRenderable reports whether s could be the %v rendering of a
// float64: [-]digits[.digits][e[+-]digits], at most 24 bytes.
func floatRenderable(s string) bool {
	if len(s) == 0 || len(s) > 24 {
		return false
	}
	i := 0
	digits := func() bool {
		n := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			n++
		}
		return n > 0
	}
	if s[i] == '-' {
		i++
	}
	if !digits() {
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(s) && s[i] == 'e' {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(s)
}
