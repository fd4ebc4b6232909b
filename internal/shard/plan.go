// Package shard is the sharded study runtime: a planner that
// deterministically partitions the ranked site list into K independent
// failure domains, a supervisor that runs each shard as an
// independently-checkpointed worker (in-process or re-execed) and
// restarts the ones that die or stall, and a verified merge that folds
// the per-shard outputs back into one study result.
//
// The design leans on two properties the rest of the repo already
// guarantees: fault injection is a pure function of (seed, host,
// attempt) with no cross-site state, and every accumulated aggregate is
// a set. Together they mean a site's crawl and detection output is
// byte-identical whether it ran in shard 3 of 8 or in an unsharded
// run — so merging per-site records back in global site order
// reproduces the unsharded study's leak bytes and tables exactly, for
// any K, with or without mid-run shard deaths.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"piileak/internal/site"
	"piileak/internal/webgen"
)

// PlanSchema versions the plan manifest layout. Schema 2 dropped the
// materialized per-shard assignment lists in favour of the interleave
// rule and universe size they were derived from, so plan.json is
// O(shards) instead of O(sites) — a few hundred bytes at any scale,
// including a million-site lazy universe.
const PlanSchema = 2

// planInterleave names the only partition rule: global site index i
// lands in shard i%K at position i/K. Storing the rule instead of its
// expansion is what keeps the plan O(shards); the string is pinned at
// parse and verify time so a plan written under some future rule is
// rejected instead of silently re-derived under this one.
const planInterleave = "rank-mod-shards"

// Plan is the byte-stable partition manifest: the coordinates every
// worker and the merge agree on. Two calls to NewPlan with the same
// ecosystem and K marshal to identical bytes. The plan deliberately
// stores no site data — each shard's population is re-derived from
// (EcoSeed, Universe, Interleave) on demand via the lazy universe.
type Plan struct {
	Schema    int    `json:"schema"`
	EcoSeed   uint64 `json:"eco_seed"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultRate is the ecosystem's fault rate, bound next to its seed:
	// shards crawled under different fault configs never merge. Absent
	// on fault-free plans, which keep their bytes.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Shards is K; Universe is the full ranked site count, including
	// any lazily generated tail.
	Shards   int `json:"shards"`
	Universe int `json:"universe"`
	// Interleave names the index-to-shard rule; only
	// "rank-mod-shards" exists.
	Interleave string `json:"interleave"`
}

// NewPlan partitions the ecosystem's ranked universe into shards
// rank-interleaved: global index i lands in shard i%K at position i/K,
// so every shard spans the full rank distribution (head-heavy sites
// are spread evenly, not concentrated in shard 0) and shard sizes
// differ by at most one.
func NewPlan(eco *webgen.Ecosystem, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", shards)
	}
	n := eco.Universe().Len()
	if n == 0 {
		return nil, fmt.Errorf("shard: ecosystem has no sites to partition")
	}
	p := &Plan{
		Schema:     PlanSchema,
		EcoSeed:    eco.Config.Seed,
		Shards:     shards,
		Universe:   n,
		Interleave: planInterleave,
	}
	p.FaultSeed, p.FaultRate = faultConfig(eco)
	return p, nil
}

// faultConfig is the ecosystem's resolved fault seed and rate; both
// zero when fault injection is off.
func faultConfig(eco *webgen.Ecosystem) (seed uint64, rate float64) {
	if eco.Faults == nil {
		return 0, 0
	}
	return eco.Faults.Seed(), eco.Faults.Rate()
}

// Size is the number of sites shard covers under the interleave:
// ceil((Universe - shard) / Shards), never negative.
func (p *Plan) Size(shard int) int {
	if shard < 0 || shard >= p.Shards || shard >= p.Universe {
		return 0
	}
	return (p.Universe - shard + p.Shards - 1) / p.Shards
}

// Indexes expands one shard's global site indexes in ascending (rank)
// order. The list is derived from the interleave rule on demand — the
// plan itself never stores it.
func (p *Plan) Indexes(shard int) []int {
	n := p.Size(shard)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := shard; i < p.Universe; i += p.Shards {
		out = append(out, i)
	}
	return out
}

// Sites materializes one shard's site population in rank order — the
// slice a caller crawls when it wants the whole shard in memory. It
// walks the ecosystem's lazy universe, so the cost is the shard's
// size, never the universe's.
func (p *Plan) Sites(eco *webgen.Ecosystem, shard int) ([]*site.Site, error) {
	if shard < 0 || shard >= p.Shards {
		return nil, fmt.Errorf("shard: plan has no shard %d (shards=%d)", shard, p.Shards)
	}
	u := eco.Universe()
	if u.Len() != p.Universe {
		return nil, fmt.Errorf("shard: plan universe %d, ecosystem has %d sites", p.Universe, u.Len())
	}
	out := make([]*site.Site, 0, p.Size(shard))
	for i := shard; i < p.Universe; i += p.Shards {
		out = append(out, u.At(i))
	}
	return out, nil
}

// Domains derives the domain list one shard covers, in rank order —
// the merge report uses it to name the exact sites a lost shard took
// down.
func (p *Plan) Domains(eco *webgen.Ecosystem, shard int) []string {
	u := eco.Universe()
	var domains []string
	for i := shard; i >= 0 && i < p.Universe && i < u.Len(); i += p.Shards {
		domains = append(domains, u.At(i).Domain)
	}
	return domains
}

// Verify checks the plan against an ecosystem: schema, run identity,
// universe size and interleave rule. A plan from a different seed — or
// a hand-edited one — fails here instead of producing a silently wrong
// merge. A legacy schema-1 plan (materialized assignment lists) gets a
// distinct error: its layout predates the lazy universe, so the remedy
// is re-planning in a fresh directory, never a silent upgrade.
func (p *Plan) Verify(eco *webgen.Ecosystem) error {
	if p.Schema == 1 {
		return fmt.Errorf("shard: legacy materialized-assignment plan (schema 1); re-plan the study in a fresh directory")
	}
	if p.Schema != PlanSchema {
		return fmt.Errorf("shard: plan schema %d, want %d", p.Schema, PlanSchema)
	}
	if p.EcoSeed != eco.Config.Seed {
		return fmt.Errorf("shard: plan eco seed %d, ecosystem has %d", p.EcoSeed, eco.Config.Seed)
	}
	faultSeed, faultRate := faultConfig(eco)
	if p.FaultSeed != faultSeed {
		return fmt.Errorf("shard: plan fault seed %d, ecosystem has %d", p.FaultSeed, faultSeed)
	}
	if p.FaultRate != faultRate {
		return fmt.Errorf("shard: plan fault rate %g, ecosystem has %g", p.FaultRate, faultRate)
	}
	if n := eco.Universe().Len(); p.Universe != n {
		return fmt.Errorf("shard: plan universe %d, ecosystem has %d sites", p.Universe, n)
	}
	if p.Shards < 1 {
		return fmt.Errorf("shard: plan has %d shards", p.Shards)
	}
	if p.Interleave != planInterleave {
		return fmt.Errorf("shard: plan interleave %q, this binary speaks %q", p.Interleave, planInterleave)
	}
	return nil
}

// Marshal renders the plan as indented JSON. Struct field order makes
// the bytes stable: same ecosystem and K, same bytes.
func (p *Plan) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, fmt.Errorf("shard: marshal plan: %w", err)
	}
	return append(data, '\n'), nil
}

// PlanPath is the plan manifest's location under a shard directory.
func PlanPath(dir string) string { return filepath.Join(dir, "plan.json") }

// WritePlan persists the plan atomically (temp + rename), so a reader
// never observes a torn manifest.
func WritePlan(dir string, p *Plan) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return atomicWrite(PlanPath(dir), data)
}

// ReadPlan loads and structurally validates a plan manifest. Exactly
// one of the results is nil.
func ReadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read plan: %w", err)
	}
	return parsePlan(data)
}

// parsePlan decodes plan bytes and checks internal consistency — the
// part of Verify that needs no ecosystem, so corrupt or truncated
// manifests are rejected at read time. This is the fuzz surface: any
// byte string must produce a coherent plan or a clean error.
func parsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("shard: parse plan: %w", err)
	}
	if p.Schema == 1 {
		return nil, fmt.Errorf("shard: legacy materialized-assignment plan (schema 1); re-plan the study in a fresh directory")
	}
	if p.Schema != PlanSchema {
		return nil, fmt.Errorf("shard: plan schema %d, want %d", p.Schema, PlanSchema)
	}
	if p.Shards < 1 {
		return nil, fmt.Errorf("shard: plan has %d shards", p.Shards)
	}
	if p.Universe < 1 {
		return nil, fmt.Errorf("shard: plan universe %d", p.Universe)
	}
	if p.Interleave != planInterleave {
		return nil, fmt.Errorf("shard: plan interleave %q, this binary speaks %q", p.Interleave, planInterleave)
	}
	return &p, nil
}

// atomicWrite writes data whole under a temp name and renames it into
// place: readers see the old file or the new one, never a prefix.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	return nil
}
