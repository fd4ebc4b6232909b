package main

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"piileak/internal/blocklist"
	"piileak/internal/browser"
	"piileak/internal/core"
	"piileak/internal/countermeasure"
	"piileak/internal/crawler"
	"piileak/internal/detect"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
	"piileak/internal/pipeline"
	"piileak/internal/psl"
	"piileak/internal/report"
	"piileak/internal/site"
	"piileak/internal/tracking"
	"piileak/internal/webgen"
)

// The traced run drives a workload serially through the public entry
// points of each layer and times every call from here, outside the
// program. Each per-layer value describes one operation's worth of
// work (one study): the median over the traced
// repetitions of that operation.

// tracer collects the per-layer metrics of one traced run.
type tracer struct {
	vals        map[string]float64
	notes       map[string]any
	ops, failed int // the checked operations the GC metrics are read over
}

func newTracer() *tracer { return &tracer{vals: map[string]float64{}, notes: map[string]any{}} }

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// unit is one operation's worth of sites to drive serially.
type unit struct {
	eco        *webgen.Ecosystem
	profile    browser.Profile
	src        site.Source
	eng        *detect.Engine
	pslEvery   int // keep the captures of every n-th site for the PSL replay
	visitEvery int // revisit every n-th site's homepage in the browser layer
}

// pass is one serial drive of a unit through the crawl, detect and
// accumulate layers. With timers off it does the same work without
// reading the clock, which is what the tracing overhead is measured
// against.
type pass struct {
	u      unit
	timers bool

	wall, at, crawl, detect, acc           time.Duration
	atCalls, sites, records                int
	detectSites, detectRecords, leakySites int
	leaks                                  []core.Leak
	accum                                  *core.Accumulator
	trk                                    *tracking.Index
	reqs                                   *httpmodel.RequestIndex
	pairs                                  [][2]string // (page URL, request URL) of sampled sites
	visits                                 []int       // indexes of sampled sites

	firstAt bool
	start   time.Time
	ret     time.Time // when the last At returned
}

func (p *pass) now() time.Time {
	if p.timers {
		return time.Now()
	}
	return time.Time{}
}

// Len and At make the pass the crawl's site.Source: At stamps when the
// site is handed to the crawler, so the crawl time of a serial crawl is
// the interval from that stamp to the site's emission.
func (p *pass) Len() int { return p.u.src.Len() }

func (p *pass) At(i int) *site.Site {
	t0 := p.now()
	if !p.firstAt {
		// The crawl's start-up happens before the first At.
		p.firstAt = true
		p.crawl += t0.Sub(p.start)
	}
	s := p.u.src.At(i)
	p.ret = p.now()
	p.at += p.ret.Sub(t0)
	p.atCalls++
	return s
}

func runPass(ctx context.Context, u unit, timers bool) (*pass, error) {
	p := &pass{
		u: u, timers: timers,
		accum: core.NewAccumulator(), trk: tracking.NewIndex(), reqs: httpmodel.NewRequestIndex(),
	}
	opts := crawler.Options{Source: p}
	sc := u.eng.NewScanner()
	t0 := time.Now()
	p.start = p.now()
	err := crawler.CrawlStream(ctx, u.eco, u.profile, opts, func(r crawler.SiteResult) error {
		arrive := p.now()
		p.crawl += arrive.Sub(p.ret)
		recs := r.Crawl.Records
		p.sites++
		p.records += len(recs)
		if u.pslEvery > 0 && r.Index%u.pslEvery == 0 {
			for i := range recs {
				p.pairs = append(p.pairs, [2]string{recs[i].Page, recs[i].Request.URL})
			}
		}
		if u.visitEvery > 0 && r.Index%u.visitEvery == 0 {
			p.visits = append(p.visits, r.Index)
		}
		if r.Crawl.Outcome != crawler.OutcomeSuccess {
			return nil
		}
		leaks := sc.DetectSite(r.Crawl.Domain, recs)
		detected := p.now()
		p.detect += detected.Sub(arrive)
		p.detectSites++
		p.detectRecords += len(recs)
		for i := range leaks {
			p.accum.Add(&leaks[i])
			p.trk.Add(&leaks[i])
		}
		if len(leaks) > 0 {
			p.leakySites++
			p.reqs.AddReduced(r.Crawl.Domain, httpmodel.ReduceRecords(recs))
		}
		p.accum.AddSites(1)
		p.leaks = append(p.leaks, leaks...)
		p.acc += p.now().Sub(detected)
		return nil
	})
	p.wall = time.Since(t0)
	return p, err
}

// tracePasses runs each unit once without and once with timers and
// reports the crawl, detect and accumulate layers as medians over the
// units, plus the trace's coverage and overhead. A single unit is
// bracketed by two untimed passes, so drift over the run does not read
// as overhead. It returns the last traced pass for the layers that
// replay its output.
func tracePasses(ctx context.Context, tr *tracer, units []unit) (*pass, error) {
	var traced []*pass
	var plainWall, tracedWall []float64
	plain := func(u unit) (float64, error) {
		p, err := runPass(ctx, u, false)
		if err != nil {
			return 0, err
		}
		return p.wall.Seconds(), nil
	}
	for _, u := range units {
		before, err := plain(u)
		if err != nil {
			return nil, err
		}
		p, err := runPass(ctx, u, true)
		if err != nil {
			return nil, err
		}
		after := before
		if len(units) == 1 {
			if after, err = plain(u); err != nil {
				return nil, err
			}
		}
		plainWall = append(plainWall, (before+after)/2)
		tracedWall = append(tracedWall, p.wall.Seconds())
		traced = append(traced, p)
	}
	med := func(f func(p *pass) float64) float64 {
		xs := make([]float64, len(traced))
		for i, p := range traced {
			xs[i] = f(p)
		}
		return median(xs)
	}
	tr.set("webgen.at.calls", med(func(p *pass) float64 { return float64(p.atCalls) }))
	tr.set("webgen.at.busy_s", med(func(p *pass) float64 { return p.at.Seconds() }))
	tr.set("crawler.sites", med(func(p *pass) float64 { return float64(p.sites) }))
	tr.set("crawler.records", med(func(p *pass) float64 { return float64(p.records) }))
	tr.set("crawler.site.busy_s", med(func(p *pass) float64 { return p.crawl.Seconds() }))
	tr.set("detect.sites", med(func(p *pass) float64 { return float64(p.detectSites) }))
	tr.set("detect.records", med(func(p *pass) float64 { return float64(p.detectRecords) }))
	tr.set("detect.busy_s", med(func(p *pass) float64 { return p.detect.Seconds() }))
	tr.set("detect.leaky_site_frac", med(func(p *pass) float64 {
		if p.detectSites == 0 {
			return 0
		}
		return float64(p.leakySites) / float64(p.detectSites)
	}))
	tr.set("core.leaks", med(func(p *pass) float64 { return float64(len(p.leaks)) }))
	tr.set("core.accumulate.busy_s", med(func(p *pass) float64 { return p.acc.Seconds() }))
	tr.set("trace.coverage_frac", med(func(p *pass) float64 {
		return (p.at + p.crawl + p.detect + p.acc).Seconds() / p.wall.Seconds()
	}))
	tr.set("trace.overhead_frac", median(tracedWall)/median(plainWall)-1)
	tr.notes["traced_units"] = len(units)
	tr.notes["serial_pass_wall_s"] = median(tracedWall)
	return traced[len(traced)-1], nil
}

// traceGenerate times ecosystem generation.
func traceGenerate(tr *tracer, cfg webgen.Config) error {
	t0 := time.Now()
	_, err := webgen.Generate(cfg)
	tr.set("webgen.generate.busy_s", time.Since(t0).Seconds())
	return err
}

// traceCompile times a direct, uncached candidate compile at the
// study's depth.
func traceCompile(tr *tracer, persona pii.Persona) error {
	before := readRuntime()
	_, err := pii.BuildCandidates(persona, pii.CandidateConfig{MaxDepth: 2})
	after := readRuntime()
	tr.set("pii.build_candidates.busy_s", after.wall.Sub(before.wall).Seconds())
	tr.set("pii.build_candidates.alloc_bytes", float64(after.bytes-before.bytes))
	return err
}

// traceAnalysis times Finalize and the Table 1 and 2 renderings over
// the pass's accumulated leaks.
func traceAnalysis(tr *tracer, p *pass) {
	t0 := time.Now()
	a := p.accum.Finalize(p.leaks)
	senders, receivers := len(a.Senders), len(a.Receivers)
	text := report.Breakdown("1a", a.ByMethod(), senders, receivers) +
		report.Breakdown("1b", a.ByEncoding(), senders, receivers) +
		report.Breakdown("1c", a.ByPIIType(), senders, receivers) +
		report.Table2(p.trk.Classification().Trackers)
	tr.set("core.analysis.busy_s", time.Since(t0).Seconds())
	tr.notes["analysis_text_bytes"] = len(text)
}

// traceVisits renders the sampled sites' homepages in a fresh browser.
func traceVisits(tr *tracer, p *pass) {
	b := browser.New(p.u.profile, p.u.eco.Zone)
	var busy time.Duration
	for _, i := range p.visits {
		s := p.u.src.At(i)
		t0 := time.Now()
		b.VisitPage(s, s.BaseURL(), httpmodel.PhaseHomepage, false)
		busy += time.Since(t0)
		b.Reset()
	}
	tr.set("browser.visit_page.calls", float64(len(p.visits)))
	tr.set("browser.visit_page.busy_s", busy.Seconds())
}

func hostname(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// tracePSL replays the sampled captures' (page host, request host)
// pairs through the PSL layer's same-site and eTLD+1 calls.
func tracePSL(tr *tracer, p *pass) {
	pages := make([]string, len(p.pairs))
	hosts := make([]string, len(p.pairs))
	for i, pr := range p.pairs {
		pages[i], hosts[i] = hostname(pr[0]), hostname(pr[1])
	}
	same := 0
	t0 := time.Now()
	for i := range hosts {
		if psl.SameSite(pages[i], hosts[i]) {
			same++
		}
	}
	t1 := time.Now()
	for _, h := range hosts {
		if _, err := psl.ETLDPlusOne(h); err == nil {
			same++
		}
	}
	t2 := time.Now()
	tr.set("psl.same_site.calls", float64(len(hosts)))
	tr.set("psl.same_site.busy_s", t1.Sub(t0).Seconds())
	tr.set("psl.etld1.calls", float64(len(hosts)))
	tr.set("psl.etld1.busy_s", t2.Sub(t1).Seconds())
	tr.notes["psl_replay_hits"] = same
}

// traceCountermeasures times the §7.1 browser evaluation and the §7.2
// blocklist evaluation, then replays the blocklist engine's Match calls
// that evaluation makes. A probe (for workloads whose operation never
// evaluates countermeasures) uses one browser profile and the first
// leak only, so the layer is measured without dominating the run.
func traceCountermeasures(tr *tracer, p *pass, probe bool) error {
	profiles := countermeasure.Profiles(p.u.eco)
	leaks := p.leaks
	if probe {
		profiles = profiles[:1]
		leaks = leaks[:min(1, len(leaks))]
	}
	t0 := time.Now()
	countermeasure.EvaluateBrowsers(p.u.eco, p.u.profile, profiles)
	tr.set("countermeasure.browsers.busy_s", time.Since(t0).Seconds())

	t0 = time.Now()
	lists, err := countermeasure.ParseLists(p.u.eco.EasyListText, p.u.eco.EasyPrivacyText)
	if err != nil {
		return err
	}
	var trackers []string
	for _, t := range p.trk.Classification().Trackers {
		trackers = append(trackers, t.Receiver)
	}
	t4 := countermeasure.EvaluateBlocklistsIndexed(leaks, p.reqs, lists, trackers)
	_ = report.Table4(t4)
	tr.set("countermeasure.blocklists.busy_s", time.Since(t0).Seconds())

	// The evaluation asks each engine, per leak, about the leaky request
	// and then its initiator chain, stopping at the first block.
	engines := []*blocklist.Engine{
		blocklist.NewEngine(lists.EasyList),
		blocklist.NewEngine(lists.EasyPrivacy),
		blocklist.NewEngine(lists.EasyList, lists.EasyPrivacy),
	}
	var queries [][]blocklist.RequestInfo
	for i := range leaks {
		l := &leaks[i]
		pageHost := "www." + l.Site
		reqs := append([]httpmodel.Request{{URL: l.RequestURL, Type: httpmodel.TypeOther}}, p.reqs.Chain(l.Site, l.Seq)...)
		q := make([]blocklist.RequestInfo, len(reqs))
		for j, r := range reqs {
			typ := r.Type
			if typ == "" {
				typ = httpmodel.TypeOther
			}
			q[j] = blocklist.RequestInfo{URL: r.URL, PageHost: pageHost, Type: typ, ThirdParty: psl.IsThirdParty(pageHost, hostname(r.URL))}
		}
		queries = append(queries, q)
	}
	calls := 0
	t0 = time.Now()
	for _, eng := range engines {
		for _, q := range queries {
			for _, ri := range q {
				calls++
				if eng.Match(ri).Blocked {
					break
				}
			}
		}
	}
	tr.set("blocklist.match.busy_s", time.Since(t0).Seconds())
	tr.set("blocklist.match.calls", float64(calls))
	return nil
}

// traceCheckpoint measures the checkpoint layer: the append cost is a
// serial crawl of a stride sample of the unit's sites with a fresh
// checkpoint minus the same crawl without one; the open cost is a
// resuming OpenCheckpoint of the sample's checkpoint, with the live heap
// it leaves.
func traceCheckpoint(ctx context.Context, tr *tracer, u unit, sample int, dir string) error {
	stride := max(1, u.src.Len()/sample)
	var sites []*site.Site
	for i := 0; i < u.src.Len(); i += stride {
		sites = append(sites, u.src.At(i))
	}
	path := filepath.Join(dir, "sample.ckpt")
	crawl := func(ckpt string) (time.Duration, error) {
		t0 := time.Now()
		err := crawler.CrawlStream(ctx, u.eco, u.profile, crawler.Options{Source: site.Slice(sites), CheckpointPath: ckpt},
			func(crawler.SiteResult) error { return nil })
		return time.Since(t0), err
	}
	without, err := crawl("")
	if err != nil {
		return err
	}
	with, err := crawl(path)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	tr.set("crawler.checkpoint.append_s", (with - without).Seconds())
	tr.set("crawler.checkpoint.bytes_per_site", float64(fi.Size())/float64(len(sites)))
	tr.notes["checkpoint_sample_sites"] = len(sites)

	// Opening with resume replaces the file with its rewrite; keep the
	// replaced file allocated so the open is not charged for the disk
	// releasing it (see Pitfalls in README.md).
	if err := os.Link(path, path+".held"); err != nil {
		return err
	}
	runtime.GC()
	h0 := liveHeapBytes()
	t0 := time.Now()
	ck, err := crawler.OpenCheckpoint(path, u.eco, u.profile, true, "")
	tr.set("crawler.checkpoint.open_s", time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	runtime.GC()
	h1 := liveHeapBytes()
	tr.set("crawler.checkpoint.load_heap_mb", (float64(h1)-float64(h0))/(1<<20))
	tr.notes["checkpoint_opened_sites"] = ck.Done()
	return ck.Close()
}

// timingDetector times every detection call a pipeline's detect
// workers make.
type timingDetector struct {
	eng  *detect.Engine
	busy atomic.Int64
}

func (d *timingDetector) DetectSite(domain string, recs []httpmodel.Record) []core.Leak {
	t0 := time.Now()
	leaks := d.eng.DetectSite(domain, recs)
	d.busy.Add(int64(time.Since(t0)))
	return leaks
}

// tracePipeline runs the workload's pipeline configuration once with a
// timing detector: detect_busy_frac is the detect workers' busy time
// over workers x wall.
func tracePipeline(ctx context.Context, tr *tracer, u unit, opts pipeline.Options) error {
	det := &timingDetector{eng: u.eng}
	t0 := time.Now()
	res, err := pipeline.Run(ctx, u.eco, u.profile, det, opts)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	workers := max(1, opts.DetectWorkers)
	tr.set("pipeline.capture_high_water", float64(res.Stats.CaptureHighWater))
	tr.set("pipeline.detect_busy_frac", time.Duration(det.busy.Load()).Seconds()/(float64(workers)*wall.Seconds()))
	return nil
}

// traceServe drives jobs serially through an in-process service and
// reports each step's median latency.
func traceServe(ctx context.Context, tr *tracer, dir string, seed uint64, jobs int) error {
	svc, err := startService(dir, 1)
	if err != nil {
		return err
	}
	defer svc.stop()
	wal0 := svc.walBytes()
	var submit, wait, run, fetch []float64
	rejected := 0
	for k := 0; k < jobs; k++ {
		j := svc.runJob(ctx, jobSeed(seed, k))
		if j.rejected() {
			rejected++
		}
		if j.err != nil {
			return fmt.Errorf("serve job %d: %w", k, j.err)
		}
		submit = append(submit, j.submitted.Sub(j.sent).Seconds())
		wait = append(wait, j.running.Sub(j.submitted).Seconds())
		run = append(run, j.done.Sub(j.running).Seconds())
		fetch = append(fetch, j.fetched.Sub(j.done).Seconds())
	}
	tr.set("serve.submit_s", median(submit))
	tr.set("serve.queue_wait_s", median(wait))
	tr.set("serve.run_s", median(run))
	tr.set("serve.fetch_s", median(fetch))
	tr.set("serve.rejected", float64(rejected))
	tr.set("serve.wal_bytes_per_job", float64(svc.walBytes()-wal0)/float64(jobs))
	tr.notes["serve_traced_jobs"] = jobs
	return nil
}

// gcWindow is how long traceGC runs the workload's operation: long
// enough for several GC cycles even where operations are short.
const gcWindow = time.Second

// traceGC runs the workload's untraced operation for gcWindow (at least
// once), output checks included, and reads the runtime's GC accounting
// over it, including the largest live heap the pacer's own cycles saw.
func traceGC(ctx context.Context, tr *tracer, w workload) error {
	m := newMeter()
	defer m.close()
	for _, op := range w.measure(ctx, m, gcWindow) {
		tr.ops++
		if op.err != nil {
			tr.failed++
			tr.notes["error"] = op.err.Error()
		}
	}
	tr.set("runtime.gc_cpu_frac", m.gcCPU/m.cpu.Seconds())
	tr.set("runtime.gc_cycles", float64(m.gcCycles))
	tr.set("runtime.peak_live_heap_mb", float64(m.sampled.Load())/(1<<20))
	return nil
}

// checkpointSample is how many sites the checkpoint append is measured
// over when the workload's population is larger.
const checkpointSample = 512

// serveProbeJobs is how many jobs probe the service, which no
// workload's operation uses: enough to measure the layer without
// shaping the run.
const serveProbeJobs = 1

// layerPlan tells traceRest what it needs to know about a workload.
type layerPlan struct {
	w                    workload
	dir                  string
	seed                 uint64
	persona              pii.Persona      // compiled by the candidate-compile probe
	last                 *pass            // the last traced serial pass
	probeCountermeasures bool             // the operation never evaluates countermeasures
	pipeline             pipeline.Options // the operation's pipeline configuration
}

// traceRest measures the layers every workload reports beyond the
// serial passes.
func traceRest(ctx context.Context, tr *tracer, p layerPlan) error {
	if err := traceCompile(tr, p.persona); err != nil {
		return err
	}
	traceAnalysis(tr, p.last)
	traceVisits(tr, p.last)
	tracePSL(tr, p.last)
	if err := traceCountermeasures(tr, p.last, p.probeCountermeasures); err != nil {
		return err
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if err := traceCheckpoint(ctx, tr, p.last.u, checkpointSample, p.dir); err != nil {
		return err
	}
	if err := tracePipeline(ctx, tr, p.last.u, p.pipeline); err != nil {
		return err
	}
	if err := traceServe(ctx, tr, filepath.Join(p.dir, "serve"), p.seed, serveProbeJobs); err != nil {
		return err
	}
	return traceGC(ctx, tr, p.w)
}

// traceStudy traces a study workload whose operation covers src: reps
// serial passes, then the remaining layers.
func (w *studyState) traceStudy(ctx context.Context, tr *tracer, src site.Source, reps int, plan layerPlan) error {
	st := w.study
	if err := traceGenerate(tr, st.Config.Ecosystem); err != nil {
		return err
	}
	every := max(1, src.Len()/1000)
	u := unit{eco: st.Eco, profile: st.Config.Browser, src: src, eng: st.Engine, pslEvery: every, visitEvery: every}
	units := make([]unit, reps)
	for i := range units {
		units[i] = u
	}
	var err error
	if plan.last, err = tracePasses(ctx, tr, units); err != nil {
		return err
	}
	plan.dir, plan.seed, plan.persona = w.dir, w.seed, st.Eco.Persona
	return traceRest(ctx, tr, plan)
}

func (w *paperRepro) trace(ctx context.Context, tr *tracer) error {
	return w.traceStudy(ctx, tr, w.study.Eco.Universe(), 5, layerPlan{
		w:        w,
		pipeline: pipeline.Options{KeepRecords: true},
	})
}

func (w *universeRun) trace(ctx context.Context, tr *tracer) error {
	src, err := w.study.Eco.UniverseOf(w.n)
	if err != nil {
		return err
	}
	opts := pipeline.Options{DetectWorkers: 2}
	opts.Source, opts.Workers = src, 2
	return w.traceStudy(ctx, tr, src, 1, layerPlan{
		w:                    w,
		probeCountermeasures: true,
		pipeline:             opts,
	})
}
