// Package oracle is the legacy single-phase §4.1 leak detector, kept
// only as the reference the two-phase detect.Engine is differentially
// tested against: for every input, Scanner output must be byte-identical
// to this package's. It trades speed for obviousness — every surface of
// every third-party request goes through the candidate automaton, with
// no prefilter and no memoization. Only tests import it; production
// code detects through detect.Engine.
package oracle

import (
	"sort"

	"piileak/internal/core"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/psl"
)

// Detector matches candidate tokens in third-party traffic.
type Detector struct {
	// Candidates is the persona's compiled token set.
	Candidates *pii.CandidateSet
	// PSL splits first- from third-party hosts.
	PSL *psl.List
	// CNAME uncloaks first-party subdomains; nil disables uncloaking.
	CNAME *dnssim.Classifier
}

// NewDetector wires a detector with the default suffix list.
func NewDetector(candidates *pii.CandidateSet, cname *dnssim.Classifier) *Detector {
	return &Detector{Candidates: candidates, PSL: psl.Default(), CNAME: cname}
}

// receiverOf classifies a request host against the visited site.
func (d *Detector) receiverOf(siteDomain, host string) (receiver string, cloaked bool) {
	return core.ReceiverOf(d.PSL, d.CNAME, siteDomain, host)
}

// DetectRecord returns the leaks in one captured request. Matches are
// deduplicated per (method, token); named surfaces win the parameter
// attribution over whole-region surfaces.
func (d *Detector) DetectRecord(siteDomain string, rec *httpmodel.Record) []core.Leak {
	receiver, cloaked := d.receiverOf(siteDomain, rec.Request.Host())
	if receiver == "" {
		return nil
	}
	surfaces := httpmodel.Surfaces(&rec.Request)

	type key struct {
		method httpmodel.SurfaceKind
		value  string
	}
	found := map[key]*core.Leak{}
	var order []key

	scan := func(named bool) {
		for _, s := range surfaces {
			if (s.Name != "") != named {
				continue
			}
			for _, tok := range d.Candidates.FindIn(s.Data) {
				k := key{s.Kind, tok.Value}
				if l, ok := found[k]; ok {
					if l.Param == "" && s.Name != "" {
						l.Param = s.Name
					}
					continue
				}
				found[k] = &core.Leak{
					Site:       siteDomain,
					Receiver:   receiver,
					Cloaked:    cloaked,
					Method:     s.Kind,
					Param:      s.Name,
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

// DetectSite scans all records of one site crawl.
func (d *Detector) DetectSite(siteDomain string, records []httpmodel.Record) []core.Leak {
	var out []core.Leak
	for i := range records {
		out = append(out, d.DetectRecord(siteDomain, &records[i])...)
	}
	return out
}

// DecodeDetect is the reference for ablation A3's alternative detection
// strategy, which detect.Scanner.DecodeDetect must match: instead of
// pre-computing encoded candidate tokens, it iteratively applies every
// invertible codec to each surface up to maxDepth times and scans the
// decoded bytes. It catches encoding-wrapped leaks with a much smaller
// candidate set, but misses encodings it cannot invert and tokens
// embedded mid-surface.
func (d *Detector) DecodeDetect(siteDomain string, rec *httpmodel.Record, maxDepth int) []core.Leak {
	receiver, cloaked := d.receiverOf(siteDomain, rec.Request.Host())
	if receiver == "" {
		return nil
	}
	var out []core.Leak
	seen := map[string]bool{}
	var scanData func(s httpmodel.Surface, data []byte, depth int)
	scanData = func(s httpmodel.Surface, data []byte, depth int) {
		for _, tok := range d.Candidates.FindIn(data) {
			k := string(s.Kind) + "|" + tok.Value
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, core.Leak{
				Site: siteDomain, Receiver: receiver, Cloaked: cloaked,
				Method: s.Kind, Param: s.Name, Token: tok,
				RequestURL: rec.Request.URL, Phase: rec.Phase, Seq: rec.Seq,
			})
		}
		if depth >= maxDepth {
			return
		}
		for _, name := range invertibleCodecs {
			c, _ := lookupCodec(name)
			dec, err := c.Decode(data)
			if err != nil || len(dec) == 0 {
				continue
			}
			scanData(s, dec, depth+1)
		}
	}
	for _, s := range httpmodel.Surfaces(&rec.Request) {
		scanData(s, s.Data, 0)
	}
	// Sort by (method, param, token): the token value alone ties when
	// the same token surfaces on two channels, leaving the order to
	// surface-iteration insertion order — (method, param) breaks the
	// tie deterministically for the A3 ablation output.
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
