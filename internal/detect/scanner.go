package detect

import (
	"sort"
	"strings"
	"sync"

	"piileak/internal/core"
	"piileak/internal/encode"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

// Scanner is the mutable per-worker half of the two-phase detector: all
// scratch state a scan needs — match buffers, surface buffers,
// percent-decoding buffers, the host→receiver memo — lives here and is
// reused across records, so the steady-state no-leak path allocates
// nothing. A Scanner is NOT safe for concurrent use; create one per
// detect worker with Engine.NewScanner (the Engine itself stays shared).
type Scanner struct {
	eng *Engine

	// scratch is the automaton dedup state for the serial scan path.
	scratch pii.Scratch
	// idxBuf receives match indices per surface.
	idxBuf []int
	// surfBuf is the reusable surface slice for SurfacesInto.
	surfBuf []httpmodel.Surface
	// dec is the percent-decoding scratch for the prefilter.
	dec []byte

	// curSite and hostRecv memoize receiver classification per site:
	// crawls hit the same third-party endpoints dozens of times per
	// page, and receiverOf costs a url.Parse plus two PSL walks.
	// Classification depends on the visited site, so the memo clears on
	// site change.
	curSite  string
	hostRecv map[string]recvEntry

	// chScratch and chIdx are per-channel scan state for the optional
	// concurrent-channel mode (one slot per goroutine).
	chScratch [numChannels]pii.Scratch
	chIdx     [numChannels][]int
}

type recvEntry struct {
	receiver string
	cloaked  bool
}

// NewScanner returns a fresh scanner bound to the engine. Intended use
// is one Scanner per detect worker, scanning records serially.
func (e *Engine) NewScanner() *Scanner {
	return &Scanner{eng: e, hostRecv: make(map[string]recvEntry)}
}

// Engine returns the immutable engine this scanner scans with.
func (s *Scanner) Engine() *Engine { return s.eng }

// DetectSite scans all records of one site crawl. Output is
// byte-identical to oracle.Detector.DetectSite on the same inputs.
func (s *Scanner) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	var out []core.Leak
	for i := range records {
		out = append(out, s.DetectRecord(siteDomain, &records[i])...)
	}
	return out
}

// DetectRecord returns the leaks in one captured request, byte-identical
// to oracle.Detector.DetectRecord: matches dedup per (method, token) and
// named surfaces own the parameter attribution.
func (s *Scanner) DetectRecord(siteDomain string, rec *httpmodel.Record) []core.Leak {
	s.beginSite(siteDomain)
	receiver, cloaked := s.receiverFor(&rec.Request)
	if receiver == "" {
		return nil
	}
	if !s.mightLeak(&rec.Request) {
		// The prefilter proved no surface can match: every surface the
		// legacy detector would scan is a substring of a raw or
		// scratch-decoded region checked above.
		return nil
	}
	return s.scanRecord(siteDomain, receiver, cloaked, rec)
}

func (s *Scanner) beginSite(siteDomain string) {
	if siteDomain == s.curSite {
		return
	}
	s.curSite = siteDomain
	clear(s.hostRecv)
}

// receiverFor memoizes receiver classification by the URL's authority
// substring: every URL sharing an authority parses to the same host, so
// one url.Parse + PSL walk serves all requests to that endpoint within
// a site. URLs without a syntactically delimited authority
// (httpmodel.AuthorityKey's ok false) are classified unmemoized.
func (s *Scanner) receiverFor(r *httpmodel.Request) (string, bool) {
	k, ok := httpmodel.AuthorityKey(r.URL)
	if !ok {
		return core.ReceiverOf(s.eng.list, s.eng.cname, s.curSite, r.Host())
	}
	if e, ok := s.hostRecv[k]; ok {
		return e.receiver, e.cloaked
	}
	recv, cloaked := core.ReceiverOf(s.eng.list, s.eng.cname, s.curSite, r.Host())
	s.hostRecv[k] = recvEntry{receiver: recv, cloaked: cloaked}
	return recv, cloaked
}

// mightLeak is the zero-allocation prefilter: it probes each channel's
// automaton over raw regions and scratch-decoded variants that together
// form a provable superset of every surface the full scan would build.
// false is conclusive (the record is clean); true falls through to the
// full scan.
//
// Superset argument, per channel:
//
//   - referer: surfaces are the raw header and its query-unescaped form
//     (absent when unescape fails) — both checked directly.
//   - uri: the raw URL covers the raw query and the path's encoded
//     bytes; the query-mode decode of the query substring covers the
//     decoded-query surface and every named parameter value (percent
//     decoding is byte-local, so a decoded pair value is a substring of
//     the decoded whole); the path-mode decode of the pre-query prefix
//     covers u.Path ('+' stays literal there). A failed whole-query
//     decode is NOT conclusive — individual pairs may still decode — so
//     it forces the slow path; a failed prefix decode implies url.Parse
//     fails and the legacy scan builds no uri surfaces at all.
//   - cookie: raw value plus its query-unescaped form, as legacy.
//   - payload: the raw body; for form bodies a query-mode decode of the
//     whole body covers every pair value (decode failure → slow path:
//     ParseQuery drops only the failing pairs); for JSON bodies a raw
//     miss is conclusive only when the engine's tokens cannot be
//     produced by number/bool re-rendering (jsonLeafSafe) and the body
//     contains no escape sequences — otherwise slow path.
func (s *Scanner) mightLeak(r *httpmodel.Request) bool {
	e := s.eng

	if ref := r.Referer(); ref != "" {
		a := e.channelFor(httpmodel.SurfaceReferer)
		if a.containsString(ref) {
			return true
		}
		if dec, ok := unescapeInto(s.dec[:0], ref, true); ok {
			s.dec = dec[:0]
			if a.contains(dec) {
				return true
			}
		}
	}

	if u := r.URL; u != "" {
		a := e.channelFor(httpmodel.SurfaceURI)
		if a.containsString(u) {
			return true
		}
		prefix, query := splitURL(u)
		if query != "" {
			dec, ok := unescapeInto(s.dec[:0], query, true)
			if !ok {
				return true // pairs may still decode individually
			}
			s.dec = dec[:0]
			if a.contains(dec) {
				return true
			}
		}
		if strings.IndexByte(prefix, '%') >= 0 {
			if dec, ok := unescapeInto(s.dec[:0], prefix, false); ok {
				s.dec = dec[:0]
				if a.contains(dec) {
					return true
				}
			}
			// Decode failure: url.Parse rejects the URL, so the legacy
			// scan has no uri surfaces either — conclusive.
		}
	}

	if len(r.Cookies) > 0 {
		a := e.channelFor(httpmodel.SurfaceCookie)
		for i := range r.Cookies {
			v := r.Cookies[i].Value
			if a.containsString(v) {
				return true
			}
			if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
				if dec, ok := unescapeInto(s.dec[:0], v, true); ok {
					s.dec = dec[:0]
					if a.contains(dec) {
						return true
					}
				}
			}
		}
	}

	if len(r.Body) > 0 {
		a := e.channelFor(httpmodel.SurfaceBody)
		if a.contains(r.Body) {
			return true
		}
		switch {
		case strings.HasPrefix(r.BodyType, "application/x-www-form-urlencoded"):
			dec, ok := unescapeInto(s.dec[:0], r.Body, true)
			if !ok {
				return true // ParseQuery drops only the failing pairs
			}
			s.dec = dec[:0]
			if a.contains(dec) {
				return true
			}
		case strings.HasPrefix(r.BodyType, "application/json"):
			if !e.jsonLeafSafe || indexByte(r.Body, '\\') >= 0 {
				return true
			}
		}
	}
	return false
}

// scanRecord is the full scan, reached only for records the prefilter
// could not clear. It reproduces oracle.Detector.DetectRecord exactly;
// allocations here (the dedup map, the leak slice) are per-leaky-record,
// off the steady-state path.
func (s *Scanner) scanRecord(siteDomain, receiver string, cloaked bool, rec *httpmodel.Record) []core.Leak {
	s.surfBuf = httpmodel.SurfacesInto(&rec.Request, s.surfBuf[:0])
	surfaces := s.surfBuf
	if s.eng.concurrent {
		return s.scanChannels(siteDomain, receiver, cloaked, rec, surfaces)
	}

	type key struct {
		method httpmodel.SurfaceKind
		value  string
	}
	found := map[key]*core.Leak{}
	var order []key

	scan := func(named bool) {
		for i := range surfaces {
			sf := &surfaces[i]
			if (sf.Name != "") != named {
				continue
			}
			a := s.eng.channelFor(sf.Kind)
			s.idxBuf = a.findInto(sf.Data, &s.scratch, s.idxBuf[:0])
			for _, idx := range s.idxBuf {
				tok := a.tokenAt(idx)
				k := key{sf.Kind, tok.Value}
				if l, ok := found[k]; ok {
					if l.Param == "" && sf.Name != "" {
						l.Param = sf.Name
					}
					continue
				}
				found[k] = &core.Leak{
					Site:       siteDomain,
					Receiver:   receiver,
					Cloaked:    cloaked,
					Method:     sf.Kind,
					Param:      sf.Name,
					Token:      tok,
					RequestURL: rec.Request.URL,
					Phase:      rec.Phase,
					Seq:        rec.Seq,
				}
				order = append(order, k)
			}
		}
	}
	scan(true)  // named surfaces first: they own parameter attribution
	scan(false) // whole-region surfaces catch the rest

	if len(order) == 0 {
		return nil
	}
	out := make([]core.Leak, 0, len(order))
	for _, k := range order {
		out = append(out, *found[k])
	}
	return out
}

// scanChannels is the concurrent-channel scan: one goroutine per leak
// channel, each with private scratch and dedup state (the dedup key
// includes the channel, so channels are independent). Reassembly follows
// the surface-construction order — named uri, cookie, payload segments,
// then whole referer, uri, payload segments — which is exactly the order
// the serial named-then-whole scan emits, so output is byte-identical.
func (s *Scanner) scanChannels(siteDomain, receiver string, cloaked bool, rec *httpmodel.Record, surfaces []httpmodel.Surface) []core.Leak {
	var res [numChannels]channelLeaks
	var wg sync.WaitGroup
	for ci := 0; ci < numChannels; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res[ci] = scanOneChannel(s.eng, ci, siteDomain, receiver, cloaked, rec, surfaces, &s.chScratch[ci], &s.chIdx[ci])
		}(ci)
	}
	wg.Wait()

	n := 0
	for ci := range res {
		n += len(res[ci].named) + len(res[ci].whole)
	}
	if n == 0 {
		return nil
	}
	out := make([]core.Leak, 0, n)
	for _, ci := range [...]int{chURI, chCookie, chBody} {
		out = append(out, res[ci].named...)
	}
	for _, ci := range [...]int{chReferer, chURI, chBody} {
		out = append(out, res[ci].whole...)
	}
	return out
}

type channelLeaks struct {
	named []core.Leak
	whole []core.Leak
}

var channelKinds = [numChannels]httpmodel.SurfaceKind{
	chReferer: httpmodel.SurfaceReferer,
	chURI:     httpmodel.SurfaceURI,
	chCookie:  httpmodel.SurfaceCookie,
	chBody:    httpmodel.SurfaceBody,
}

func scanOneChannel(e *Engine, ci int, siteDomain, receiver string, cloaked bool, rec *httpmodel.Record, surfaces []httpmodel.Surface, sc *pii.Scratch, idxBuf *[]int) channelLeaks {
	kind := channelKinds[ci]
	a := &e.channels[ci]
	found := map[string]*core.Leak{}
	var namedOrder, wholeOrder []string

	scan := func(named bool, order []string) []string {
		for i := range surfaces {
			sf := &surfaces[i]
			if sf.Kind != kind || (sf.Name != "") != named {
				continue
			}
			*idxBuf = a.findInto(sf.Data, sc, (*idxBuf)[:0])
			for _, idx := range *idxBuf {
				tok := a.tokenAt(idx)
				if l, ok := found[tok.Value]; ok {
					if l.Param == "" && sf.Name != "" {
						l.Param = sf.Name
					}
					continue
				}
				found[tok.Value] = &core.Leak{
					Site:       siteDomain,
					Receiver:   receiver,
					Cloaked:    cloaked,
					Method:     sf.Kind,
					Param:      sf.Name,
					Token:      tok,
					RequestURL: rec.Request.URL,
					Phase:      rec.Phase,
					Seq:        rec.Seq,
				}
				order = append(order, tok.Value)
			}
		}
		return order
	}
	namedOrder = scan(true, nil)
	wholeOrder = scan(false, nil)

	var out channelLeaks
	for _, v := range namedOrder {
		out.named = append(out.named, *found[v])
	}
	for _, v := range wholeOrder {
		out.whole = append(out.whole, *found[v])
	}
	return out
}

// DecodeDetect is the A3 ablation's decode-and-scan strategy on the
// two-phase engine, byte-identical to oracle.Detector.DecodeDetect.
func (s *Scanner) DecodeDetect(siteDomain string, rec *httpmodel.Record, maxDepth int) []core.Leak {
	s.beginSite(siteDomain)
	receiver, cloaked := s.receiverFor(&rec.Request)
	if receiver == "" {
		return nil
	}
	var out []core.Leak
	seen := map[string]bool{}
	var scanData func(sf httpmodel.Surface, data []byte, depth int)
	scanData = func(sf httpmodel.Surface, data []byte, depth int) {
		for _, tok := range s.eng.cands.FindIn(data) {
			k := string(sf.Kind) + "|" + tok.Value
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, core.Leak{
				Site: siteDomain, Receiver: receiver, Cloaked: cloaked,
				Method: sf.Kind, Param: sf.Name, Token: tok,
				RequestURL: rec.Request.URL, Phase: rec.Phase, Seq: rec.Seq,
			})
		}
		if depth >= maxDepth {
			return
		}
		for _, name := range invertibleCodecs {
			c, _ := encode.Lookup(name)
			dec, err := c.Decode(data)
			if err != nil || len(dec) == 0 {
				continue
			}
			scanData(sf, dec, depth+1)
		}
	}
	s.surfBuf = httpmodel.SurfacesInto(&rec.Request, s.surfBuf[:0])
	for _, sf := range s.surfBuf {
		scanData(sf, sf.Data, 0)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Method != out[b].Method {
			return out[a].Method < out[b].Method
		}
		if out[a].Param != out[b].Param {
			return out[a].Param < out[b].Param
		}
		return out[a].Token.Value < out[b].Token.Value
	})
	return out
}

var invertibleCodecs = encode.Invertible()

// splitURL cuts a raw URL the way url.Parse delimits it: fragment at the
// first '#', then query at the first '?' of what remains.
func splitURL(u string) (prefix, query string) {
	if i := strings.IndexByte(u, '#'); i >= 0 {
		u = u[:i]
	}
	if j := strings.IndexByte(u, '?'); j >= 0 {
		return u[:j], u[j+1:]
	}
	return u, ""
}

// unescapeInto percent-decodes s into dst, mirroring url.QueryUnescape
// (plusToSpace) / url.PathUnescape (!plusToSpace) semantics exactly:
// a '%' not followed by two hex digits fails, everything else passes
// through. It allocates only when dst's capacity is exceeded.
func unescapeInto[T text](dst []byte, s T, plusToSpace bool) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '%':
			if i+2 >= len(s) || !ishex(s[i+1]) || !ishex(s[i+2]) {
				return dst, false
			}
			dst = append(dst, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
		case c == '+' && plusToSpace:
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst, true
}

type text interface{ ~string | ~[]byte }

func indexByte[T text](s T, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func ishex(c byte) bool {
	switch {
	case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		return true
	}
	return false
}

func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return c - 'A' + 10
}
