package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/obs"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// span is one traced interval. Spans of one request share req; a span
// with parent 0 is a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory. The in-process replay runs on one
// goroutine, so an open-span stack gives each span its parent; the
// handler spans arrive from server goroutines through handlerSpans.
type tracer struct {
	t0    time.Time
	on    bool
	req   int
	class string
	spans []span
	stack []int // indices into spans
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a span under the innermost open one and returns its
// index.
func (t *tracer) add(name string, start, end time.Time) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Class: t.class, Name: name, Start: t.ns(start), End: t.ns(end)})
	return len(t.spans) - 1
}

// begin opens a span; end closes it. Both are no-ops while tracing is
// off.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	now := time.Now()
	i := t.add(name, now, now)
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.ns(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
}

// record adds a finished span while tracing is on.
func (t *tracer) record(name string, start, end time.Time) {
	if t.on {
		t.add(name, start, end)
	}
}

// handlerSpans wraps the mounted handler and records its interval per
// request id while enabled.
type handlerSpans struct {
	on atomic.Bool
	mu sync.Mutex
	at map[int][2]time.Time // guarded by mu
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			return
		}
		h.mu.Lock()
		h.at[id] = [2]time.Time{start, end}
		h.mu.Unlock()
	})
}

func (h *handlerSpans) take(id int) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, ok := h.at[id]
	delete(h.at, id)
	return at, ok
}

// journal times Journal.Append for the replay's ledgers.
type journal struct {
	w  *wal.Writer
	tr *tracer
}

func (j journal) Append(session string, e accounting.Entry) (uint64, error) {
	i := j.tr.begin("wal.append")
	seq, err := j.w.Append(session, e)
	j.tr.end(i)
	return seq, err
}

func (j journal) Applied(seq uint64) { j.w.Applied(seq) }

// inproc is the traced run's second pipeline: its own cache, ledgers
// and WAL, driven through the public functions the handler calls, in
// the handler's order.
type inproc struct {
	cache   *release.ScoreCache
	ledgers map[string]*accounting.Ledger
	wal     *wal.Writer
	tr      *tracer
	env     *envelope
	enc     bytes.Buffer
}

// maxBodyBytes is the server's request-body limit.
const maxBodyBytes = 64 << 20

// workers is the grant the server gives a request that asks for no
// particular parallelism: the whole worker budget.
var workers = runtime.GOMAXPROCS(0)

// newInproc sets up (b): for accounted-wal from a copy of the carried
// state in dir, with every WAL fsync recorded as a span.
func newInproc(c *carried, dir string, tr *tracer) (*inproc, error) {
	b := &inproc{cache: release.NewScoreCache(), ledgers: map[string]*accounting.Ledger{}, tr: tr, env: newEnvelope()}
	if c == nil {
		return b, nil
	}
	if err := c.copyState(dir); err != nil {
		return nil, err
	}
	fsys := &syncFS{FS: faultfs.OS, onSync: func(start, end time.Time) { tr.record("wal.fsync", start, end) }}
	st, err := server.OpenDurable(fsys, faultfs.WallClock{}, filepath.Join(dir, "snapshot.json"), filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	b.cache, b.wal = st.Cache, st.WAL
	for name, led := range st.Accountants {
		if err := b.bind(led, name); err != nil {
			b.wal.Close()
			return nil, err
		}
	}
	return b, nil
}

func (b *inproc) bind(led *accounting.Ledger, name string) error {
	led.SetJournal(journal{w: b.wal, tr: b.tr}, name)
	b.ledgers[name] = led
	return led.SetCeiling(ceilingEps, 0)
}

func (b *inproc) ledger(name string) (*accounting.Ledger, error) {
	if led, ok := b.ledgers[name]; ok {
		return led, nil
	}
	led := accounting.NewLedger(accounting.DefaultDelta)
	return led, b.bind(led, name)
}

func (b *inproc) close() error {
	if b.wal == nil {
		return nil
	}
	return b.wal.Close()
}

// run replays one request body through the pipeline and returns the
// reports the server would send.
func (b *inproc) run(req *request, body []byte) ([]*release.Report, error) {
	tr := b.tr
	start := time.Now()
	endpoint := "release"
	if len(req.members) > 1 {
		endpoint = "batch"
	}
	// The handler's request trace: the release stages record their obs
	// spans into it, as they do under the server.
	o := tr.begin("server.obs")
	ot := obs.NewTrace(endpoint)
	ctx := obs.WithTrace(context.Background(), ot)
	tr.end(o)
	// The server's request decoding, replayed on the same bytes: one
	// strict JSON value under a body-size limit, then a check for
	// trailing data.
	d := tr.begin("server.decode")
	var rrs []server.ReleaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
	dec.DisallowUnknownFields()
	var err error
	if len(req.members) > 1 {
		var br server.BatchRequest
		err = dec.Decode(&br)
		rrs = br.Requests
	} else {
		var rr server.ReleaseRequest
		err = dec.Decode(&rr)
		rrs = []server.ReleaseRequest{rr}
	}
	if err == nil {
		if terr := dec.Decode(new(json.RawMessage)); !errors.Is(terr, io.EOF) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	tr.end(d)
	if err != nil {
		return nil, err
	}
	prepared := make([]*release.Prepared, len(rrs))
	ledgers := make([]*accounting.Ledger, len(rrs))
	for i := range rrs {
		rr := &rrs[i]
		cfg := release.Config{
			Epsilon: rr.Epsilon, Delta: rr.Delta, K: rr.K, Mechanism: rr.Mechanism, Noise: rr.Noise,
			Substrate: rr.Substrate, Smoothing: rr.Smoothing, Seed: rr.Seed, Parallelism: rr.Parallelism,
			Cache: b.cache,
		}
		if len(rr.Network) > 0 {
			d := tr.begin("server.decode")
			cfg.Network, err = bayes.ParseJSON(rr.Network)
			tr.end(d)
			if err != nil {
				return nil, err
			}
		}
		p := tr.begin("release.prepare")
		prepared[i], err = release.PrepareContext(ctx, rr.Sessions, cfg)
		tr.end(p)
		if err != nil {
			return nil, err
		}
		if rr.Accountant != "" {
			if ledgers[i], err = b.ledger(rr.Accountant); err != nil {
				return nil, err
			}
			prepared[i].SetAccountant(ledgers[i], rr.Accountant)
		}
	}
	if len(prepared) == 1 {
		ot.SetAttr("mechanism", prepared[0].Mechanism())
		ot.SetAttr("substrate", prepared[0].SubstrateKind())
		if rrs[0].Accountant != "" {
			ot.SetAttr("session", rrs[0].Accountant)
		}
	} else {
		ot.SetAttr("batch_size", strconv.Itoa(len(prepared)))
	}
	_, csp := obs.StartSpan(ctx, "ceiling")
	err = b.check(prepared, ledgers)
	csp.EndErr(err)
	if err != nil {
		return nil, err
	}
	scores := make([]core.ChainScore, len(prepared))
	if len(prepared) == 1 {
		scores[0], err = b.score(ctx, prepared[0], req.members[0].class)
	} else {
		_, wsp := obs.StartSpan(ctx, "wait")
		wsp.End()
		_, ssp := obs.StartSpan(ctx, "score")
		s := tr.begin("core.batch")
		scores, err = b.scoreBatch(ctx, prepared)
		tr.end(s)
		ssp.EndErr(err)
	}
	if err != nil {
		return nil, err
	}
	reports := make([]*release.Report, len(prepared))
	for i, p := range prepared {
		// FinishContext: noise, then the ledger charge whose journal
		// append is a child span.
		f := tr.begin("release.noise")
		reports[i], err = p.FinishContext(ctx, scores[i])
		tr.end(f)
		if err != nil {
			return nil, err
		}
	}
	e := tr.begin("server.encode")
	b.enc.Reset()
	enc := json.NewEncoder(&b.enc)
	enc.SetIndent("", "  ")
	if len(reports) > 1 {
		err = enc.Encode(server.BatchResponse{Reports: reports})
	} else {
		err = enc.Encode(reports[0])
	}
	tr.end(e)
	o = tr.begin("server.obs")
	b.env.record(endpoint, ot, time.Since(start), prepared)
	tr.end(o)
	return reports, err
}

// envelope replays the observability work the server's handler wrapper
// does after every request: counters, latency histograms per request
// and per stage span, the recent-traces ring, and the request log.
type envelope struct {
	requests, releases *obs.CounterVec
	reqDur, stageDur   *obs.HistogramVec
	ring               *obs.TraceRing
	log                *slog.Logger
}

func newEnvelope() *envelope {
	reg := obs.NewRegistry()
	return &envelope{
		requests: reg.Counter("pufferd_requests_total", "HTTP requests.", "endpoint", "status"),
		releases: reg.Counter("pufferd_releases_total", "Releases.", "mechanism", "substrate"),
		reqDur:   reg.Histogram("pufferd_request_duration_seconds", "Request latency.", nil, "endpoint"),
		stageDur: reg.Histogram("pufferd_stage_duration_seconds", "Stage latency.", nil, "stage"),
		ring:     obs.NewTraceRing(256),
		log:      slog.New(slog.DiscardHandler),
	}
}

func (e *envelope) record(endpoint string, ot *obs.Trace, d time.Duration, prepared []*release.Prepared) {
	for _, p := range prepared {
		e.releases.With(p.Mechanism(), p.SubstrateKind()).Inc()
	}
	e.requests.With(endpoint, "200").Inc()
	e.reqDur.With(endpoint).Observe(d.Seconds())
	ot.SetAttr("status", "200")
	ot.Finish(d)
	for _, sp := range ot.Spans() {
		if sp.Err == "" {
			e.stageDur.With(sp.Name).Observe(sp.Dur.Seconds())
		}
	}
	e.ring.Add(ot)
	attrs := []slog.Attr{slog.String("trace", ot.ID), slog.String("endpoint", ot.Name),
		slog.String("status", "200"), slog.Duration("duration", d)}
	for _, a := range ot.Attrs() {
		attrs = append(attrs, slog.String(a.Key, a.Value))
	}
	e.log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

// check is the pre-scoring ceiling check: each ledger's planned
// entries, checked together.
func (b *inproc) check(prepared []*release.Prepared, ledgers []*accounting.Ledger) error {
	planned := map[*accounting.Ledger][]accounting.Entry{}
	var order []*accounting.Ledger
	for i, led := range ledgers {
		if led == nil {
			continue
		}
		if _, ok := planned[led]; !ok {
			order = append(order, led)
		}
		e, err := prepared[i].PlannedEntry()
		if err != nil {
			return err
		}
		planned[led] = append(planned[led], e)
	}
	if len(order) == 0 {
		return nil
	}
	c := b.tr.begin("accounting.check")
	defer b.tr.end(c)
	for _, led := range order {
		if err := led.CheckCharge(planned[led]...); err != nil {
			return err
		}
	}
	return nil
}

// score runs Prepared.Score under a span named by what the cache did:
// core.hit when its hit counter moved, else the class's cold layer.
func (b *inproc) score(ctx context.Context, p *release.Prepared, c *class) (core.ChainScore, error) {
	if !p.NeedsScore() {
		return core.ChainScore{}, nil
	}
	_, wsp := obs.StartSpan(ctx, "wait")
	wsp.End()
	p.SetParallelism(workers)
	before := b.cache.Stats()
	_, ssp := obs.StartSpan(ctx, "score")
	s := b.tr.begin("score")
	score, err := p.Score(ctx)
	b.tr.end(s)
	ssp.EndErr(err)
	if s >= 0 {
		name := c.cold
		if b.cache.Stats().Misses == before.Misses {
			name = "core.hit"
		}
		b.tr.spans[s].Name = name
	}
	return score, err
}

// scoreBatch is the batch endpoint's scoring: members grouped by
// (mechanism, ε) through the batched scorers, network members one by
// one.
func (b *inproc) scoreBatch(ctx context.Context, prepared []*release.Prepared) ([]core.ChainScore, error) {
	scores := make([]core.ChainScore, len(prepared))
	type key struct {
		mech string
		eps  float64
	}
	groups := map[key][]int{}
	var keys []key
	var single []int
	for i, p := range prepared {
		switch {
		case !p.NeedsScore():
		case p.Class() == nil:
			single = append(single, i)
		default:
			k := key{p.Mechanism(), p.Epsilon()}
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], i)
		}
	}
	for _, k := range keys {
		members := groups[k]
		specs := make([]core.MultiSpec, len(members))
		for j, i := range members {
			specs[j] = core.MultiSpec{Class: prepared[i].Class(), Lengths: prepared[i].Lengths()}
		}
		var got []core.ChainScore
		var err error
		switch k.mech {
		case release.MechMQMExact:
			got, err = core.ExactScoreMultiBatch(b.cache, specs, k.eps, core.ExactOptions{Parallelism: workers})
		case release.MechKantorovich:
			got, err = kantorovich.ScoreBatch(b.cache, specs, k.eps, kantorovich.Options{Parallelism: workers})
		default:
			got, err = core.ApproxScoreMultiBatch(b.cache, specs, k.eps, core.ApproxOptions{Parallelism: workers})
		}
		if err != nil {
			return nil, err
		}
		for j, i := range members {
			scores[i] = got[j]
		}
	}
	for _, i := range single {
		prepared[i].SetParallelism(workers)
		got, err := prepared[i].Score(ctx)
		if err != nil {
			return nil, err
		}
		scores[i] = got
	}
	return scores, nil
}

// maxLockstep bounds the traced part of a traced run, which keeps the
// span dump of the fast workloads to a few MB.
const maxLockstep = 3000

// traced is the per-layer run. After the usual set-up, a second
// pipeline (b) is set up from the same state. The first half of the
// timed sequence (at most maxLockstep requests) then runs in lockstep:
// each request over HTTP with a client span and a handler span, then
// through (b) with a span around every layer call; (a) and (b) must
// agree bit for bit. The rest runs over HTTP untraced and gives the
// process counters and the untraced round-trip p50 the tracing
// overhead is measured against.
func (r *runner) traced(seconds float64, out string) (*result, error) {
	if err := r.prepare(r.w.blocks(seconds)); err != nil {
		return nil, err
	}
	hs := &handlerSpans{at: map[int][2]time.Time{}}
	dirA := filepath.Join(r.work, "boot")
	inst, setupS, err := r.setup(dirA, hs.wrap)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	dirB := filepath.Join(r.work, "inproc")
	b, err := newInproc(r.carried, dirB, tr)
	if err != nil {
		inst.close()
		return nil, err
	}
	// (b)'s warm-up pass: traced, so pool workloads show their cold
	// scores (the set-up cost) too.
	tr.on = true
	chargedB := map[string]int{}
	var body bytes.Buffer
	for _, req := range r.warm {
		tr.req, tr.class = -1-req.idx, "warm-up/"+req.className()
		req.render(&body)
		if _, err := b.run(req, body.Bytes()); err != nil {
			b.close()
			inst.close()
			return nil, fmt.Errorf("in-process warm-up %d: %w", req.idx, err)
		}
		countCharges(chargedB, req)
	}

	nLock := min(r.in.timedCount()/2, maxLockstep)
	lockFailed := 0
	var lockRT []float64
	var lockReleases int
	cl := newClient(inst.base)
	hs.on.Store(true)
	before := inst.srv.Stats()
	syncs0 := r.fs.syncs.Load()
	for i := 0; i < nLock; i++ {
		req := r.in.timed(i)
		tr.req, tr.class = i, req.className()
		req.render(&body)
		rt := tr.begin("http.roundtrip")
		status, lat, err := cl.do(req.path(), body.Bytes(), i)
		tr.end(rt)
		var reps []wireReport
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(cl.resp.Bytes()))
		}
		if err == nil {
			reps, err = parseReply(req, cl.resp.Bytes())
		}
		if at, ok := hs.take(i); ok && rt >= 0 {
			tr.stack = append(tr.stack, rt)
			tr.record("server.handler", at[0], at[1])
			tr.stack = tr.stack[:len(tr.stack)-1]
		}
		if err != nil {
			r.fail.add("traced request %d (%s): %v", i, req.className(), err)
			lockFailed++
			continue
		}
		lockRT = append(lockRT, ms(lat))
		lockReleases += len(req.members)
		countCharges(r.charged, req)
		want, err := b.run(req, body.Bytes())
		if err != nil {
			r.fail.add("in-process request %d (%s): %v", i, req.className(), err)
			lockFailed++
			continue
		}
		countCharges(chargedB, req)
		for j := range want {
			if err := sameRelease(want[j], &reps[j]); err != nil {
				r.fail.add("request %d member %d: HTTP and in-process releases differ: %v", i, j, err)
				lockFailed++
				break
			}
		}
	}
	hs.on.Store(false)
	tr.on = false
	cl.close()
	lock := &phase{before: before, after: inst.srv.Stats(), releases: lockReleases, statuses: map[int]int{}, syncs: r.fs.syncs.Load() - syncs0}
	fmt.Print("lockstep part, ")
	r.selfCheck(lock)

	p := r.drive(inst, nLock, r.in.timedCount())
	fmt.Print("untraced part, ")
	r.selfCheck(p)
	tables := inst.srv.Stats().InfluenceTables
	if err := inst.close(); err != nil {
		b.close()
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	bad := r.verify(p, newOracle())
	if r.carried != nil {
		checkJournal(r.carried, dirA, r.charged, p.after.Accountants, r.fail)
		checkJournal(r.carried, dirB, chargedB, b.accountantStats(), r.fail)
	}
	r.summary(p, setupS)
	if err := dumpSpans(filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed)), tr.spans); err != nil {
		return nil, err
	}
	layers := analyze(tr.spans)
	layers.print(os.Stdout)

	m := map[string]metric{}
	for _, name := range layerNames {
		m[name+"_ms"] = metric{Value: layers.median(name), Unit: "ms"}
	}
	m["http.transport_ms"] = metric{Value: median(layers.transport), Unit: "ms"}
	m["server.handler_ms"] = metric{Value: median(layers.handler), Unit: "ms"}
	m["server.envelope_ms"] = metric{Value: median(layers.envelope), Unit: "ms"}
	m["wal.fsync_p95_ms"] = metric{Value: layers.quantile("wal.fsync", 0.95), Unit: "ms"}
	m["wal.replay_s"] = metric{Value: 0, Unit: "s"}
	if r.carried != nil {
		m["wal.replay_s"] = metric{Value: median(r.replays), Unit: "s"}
	}
	accounted := 0
	if r.w.sessions > 0 {
		accounted = p.releases
	}
	m["wal.fsyncs_per_release"] = metric{Value: ratio(float64(p.syncs), float64(accounted)), Unit: "count"}
	hits := float64(p.after.Cache.Hits - p.before.Cache.Hits)
	misses := float64(p.after.Cache.Misses - p.before.Cache.Misses)
	m["core.cache_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "count"}
	m["matrix.resident_matrices"] = metric{Value: float64(tables.Matrices), Unit: "count"}
	m["matrix.table_hit_ratio"] = metric{Value: ratio(float64(tables.Hits), float64(tables.Hits+tables.Misses)), Unit: "count"}
	m["process.cpu_ms_per_release"] = metric{Value: ratio(ms(p.cpu), float64(p.releases)), Unit: "ms"}
	m["process.allocs_per_release"] = metric{Value: ratio(float64(p.mallocs), float64(p.releases)), Unit: "count"}
	m["process.gc_per_1k_releases"] = metric{Value: ratio(1000*float64(p.gcs), float64(p.releases)), Unit: "count"}
	untraced := median(p.lats)
	m["trace.overhead_pct"] = metric{Value: 100 * (median(lockRT) - untraced) / untraced, Unit: "%"}
	res := &result{
		Correct:   r.fail.count() == 0,
		Attempted: nLock + p.attempted,
		Failed:    lockFailed + p.attempted - p.ok + bad,
		Metrics:   m,
	}
	return res, nil
}

func (b *inproc) accountantStats() map[string]server.AccountantStats {
	out := make(map[string]server.AccountantStats, len(b.ledgers))
	for name, led := range b.ledgers {
		out[name] = server.AccountantStats{Releases: led.Count(), RDPEpsilon: led.TotalEpsilon()}
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if !(b > 0) {
		return 0
	}
	return a / b
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(w.Flush(), f.Close())
}
