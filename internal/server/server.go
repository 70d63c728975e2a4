// Package server is the long-lived serving layer around
// internal/release: a process-wide warmed ScoreCache shared by every
// request, a global worker budget that maps per-request parallelism
// onto the scoring engine's pool without oversubscribing the host, and
// a small JSON-over-HTTP surface:
//
//	POST /v1/release        one release (sessions or raw series text)
//	POST /v1/release/batch  many releases, scored through one batched
//	                        engine pass that dedupes identical fitted
//	                        models across requests
//	GET  /v1/stats          cache traffic, worker budget, uptime
//
// Responses are exactly release.Run's Report: N concurrent requests
// with the same seed and config release bit-identical histograms to
// the one-shot CLI, warm or cold. Graceful shutdown is plain
// http.Server.Shutdown — in-flight releases drain to completion
// because a scoring sweep, once started, is never abandoned.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/obs"
	"pufferfish/internal/release"
)

// mechanisms is the canonical mechanism list; the per-mechanism stats
// counters carry exactly these keys so load smokes can assert their
// traffic mix, and a mechanism added to internal/release gains a
// counter automatically.
var mechanisms = release.Mechanisms()

// substrates is the canonical substrate-kind list; like mechanisms, it
// pins the per-substrate counter keys so new kinds surface in
// /v1/stats automatically.
var substrates = release.Substrates()

// Cache re-exports the shared score cache type so cmd/pufferd can
// thread a pre-warmed (or to-be-persisted) cache without importing
// the internal release package.
type Cache = release.ScoreCache

// Config tunes a Server.
type Config struct {
	// Workers is the global scoring-worker budget shared by all
	// requests (0 = GOMAXPROCS). No matter how many releases are in
	// flight, at most this many scoring workers run at once.
	Workers int
	// Cache is the shared score cache; nil constructs a fresh one.
	// Passing a pre-warmed cache lets a restart skip the cold start.
	Cache *release.ScoreCache
	// Accountants pre-seeds the named accountant sessions (restored
	// from a pufferd snapshot); nil starts with none. Sessions are
	// created on demand when a request names a new accountant.
	Accountants map[string]*accounting.Ledger
	// CeilingEps, when > 0, installs a hard (CeilingEps, CeilingDelta)
	// budget ceiling on every accountant session, pre-seeded and
	// created alike: a release that would push a session past it is
	// refused with 403 before any scoring work, and the refusal is
	// counted in /v1/stats. CeilingDelta ≤ 0 means the ledger's own
	// headline δ. Invalid parameters (ε < 0, δ ≥ 1) panic at
	// construction — a server that silently dropped its configured
	// ceiling would be worse than one that refuses to start.
	CeilingEps   float64
	CeilingDelta float64
	// MaxAccountants caps the named-session map (sessions are durable
	// privacy budgets and never pruned); 0 means the 1024 default. A
	// request naming a fresh session past the cap is refused with 403
	// and counted in /v1/stats.
	MaxAccountants int
	// MaxQueue bounds the number of requests allowed to wait for a
	// scoring worker; when the queue is full further scoring requests
	// are shed with 429 + Retry-After instead of piling up. 0 means
	// unbounded waiting (the pre-shedding behavior).
	MaxQueue int
	// RequestTimeout bounds each request's processing from decode to
	// finish; a request past its deadline aborts at the next stage
	// boundary with 503. 0 means no server-imposed deadline.
	RequestTimeout time.Duration
	// WAL, when set, journals every accountant charge before the
	// ledger mutates (and before any noise leaves the process), making
	// cumulative spend crash-safe. The server binds it to every
	// session; pufferd owns recovery and rotation.
	WAL *wal.Writer
	// Logger receives the server's structured request logs (one record
	// per traced request, slow requests at Warn with per-stage
	// timings); nil discards them. pufferd passes its slog handler so
	// server and daemon logs share one sink and format.
	Logger *slog.Logger
	// SlowRequest, when > 0, logs any traced request slower than this
	// at Warn with its trace id and per-stage durations. 0 disables
	// slow-request logging.
	SlowRequest time.Duration
}

// Server carries the shared state of the serving layer. Create one
// with New and mount Handler on an http.Server.
type Server struct {
	cache    *release.ScoreCache
	budget   *budget
	started  time.Time
	inFlight atomic.Int64
	requests atomic.Int64
	releases atomic.Int64
	// byMech counts successful releases per mechanism name; the keys
	// are fixed at construction (one per supported mechanism), so the
	// map itself is read-only and the values are atomics. bySubstrate
	// is the same breakdown per substrate kind.
	byMech      map[string]*atomic.Int64
	bySubstrate map[string]*atomic.Int64

	// accountants holds the named Rényi ledger sessions, created on
	// first use and kept across requests (and, through the pufferd
	// snapshot, across restarts). amu guards the map only — each
	// Ledger is internally synchronized.
	amu         sync.Mutex
	accountants map[string]*accounting.Ledger // guarded by amu

	// Robustness knobs, fixed at construction (see Config).
	maxAccountants int
	ceilEps        float64
	ceilDelta      float64
	timeout        time.Duration
	wal            *wal.Writer

	// Refusal counters, surfaced in /v1/stats so operators (and the
	// chaos/ceiling smokes) can see enforcement happening.
	budgetRefusals  atomic.Int64
	sessionRefusals atomic.Int64
	shedTotal       atomic.Int64

	// scoringHook, when set, runs after Prepare and before scoring on
	// every release request. Tests use it to hold a request in flight
	// deterministically.
	scoringHook func()

	// Observability: the per-server metrics registry (no process
	// globals, so test servers never collide), the hot-path families,
	// the recent-traces ring, and the structured request logger.
	reg     *obs.Registry
	metrics *serverMetrics
	traces  *obs.TraceRing
	slow    time.Duration
	logger  *slog.Logger
}

// traceRingCapacity bounds GET /v1/traces/recent: enough history to
// inspect a burst, small enough that the ring is never a memory
// concern.
const traceRingCapacity = 256

// New returns a Server with an empty (or the given pre-warmed) cache.
func New(cfg Config) *Server {
	cache := cfg.Cache
	if cache == nil {
		cache = release.NewScoreCache()
	}
	byMech := make(map[string]*atomic.Int64, len(mechanisms))
	for _, m := range mechanisms {
		byMech[m] = new(atomic.Int64)
	}
	bySubstrate := make(map[string]*atomic.Int64, len(substrates))
	for _, sub := range substrates {
		bySubstrate[sub] = new(atomic.Int64)
	}
	s := &Server{
		cache:          cache,
		budget:         newBudget(cfg.Workers, cfg.MaxQueue),
		started:        time.Now(),
		byMech:         byMech,
		bySubstrate:    bySubstrate,
		maxAccountants: cfg.MaxAccountants,
		ceilEps:        cfg.CeilingEps,
		ceilDelta:      cfg.CeilingDelta,
		timeout:        cfg.RequestTimeout,
		wal:            cfg.WAL,
	}
	if s.maxAccountants <= 0 {
		s.maxAccountants = maxAccountantSessions
	}
	s.accountants = make(map[string]*accounting.Ledger, len(cfg.Accountants))
	for name, led := range cfg.Accountants {
		if led != nil {
			// Restored sessions get the same journal and ceiling as
			// fresh ones. A restored session already past the ceiling
			// is legal (SetCeiling never errors for it): it simply
			// refuses every further charge.
			if err := s.bindLedger(led, name); err != nil {
				panic("server: invalid budget ceiling config: " + err.Error())
			}
			s.accountants[name] = led
		}
	}
	//privlint:allow floatcompare zero is the exact unset sentinel for the ceiling flags
	if s.ceilEps == 0 && s.ceilDelta != 0 {
		panic("server: budget ceiling δ set without an ε ceiling")
	}
	//privlint:allow floatcompare zero is the exact unset sentinel for the ceiling flags
	if s.ceilEps != 0 {
		// Validate the ceiling parameters even when no session was
		// restored, so a misconfigured server fails at boot, not at the
		// first charge it was supposed to refuse.
		probe := accounting.NewLedger(accounting.DefaultDelta)
		if err := probe.SetCeiling(s.ceilEps, s.ceilDelta); err != nil {
			panic("server: invalid budget ceiling config: " + err.Error())
		}
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.slow = cfg.SlowRequest
	s.traces = obs.NewTraceRing(traceRingCapacity)
	// The metric catalogue registers last: its scrape-time collectors
	// read the cache, budget, WAL, and accountant map, all of which
	// must be in place first.
	s.reg = obs.NewRegistry()
	s.metrics = newServerMetrics(s, s.reg)
	return s
}

// bindLedger attaches the server-wide journal and budget ceiling to a
// session ledger; every ledger entering s.accountants passes through
// it, so no session can dodge enforcement or durability.
func (s *Server) bindLedger(led *accounting.Ledger, name string) error {
	if s.wal != nil {
		led.SetJournal(s.wal, name)
	}
	//privlint:allow floatcompare zero is the exact unset sentinel for the ceiling flags
	if s.ceilEps != 0 {
		return led.SetCeiling(s.ceilEps, s.ceilDelta)
	}
	return nil
}

// maxAccountantSessions is the default bound on the named-session map
// (Config.MaxAccountants overrides it): sessions are never pruned
// (they are durable privacy budgets), so without a cap a client could
// grow server memory and the persisted snapshot without bound by
// minting fresh names.
const maxAccountantSessions = 1024

// errSessionLimit marks a refusal to mint a new accountant session;
// handlers map it to 403 (the name is understood, the server will not
// create it — retrying cannot help) rather than a generic 400.
var errSessionLimit = errors.New("accountant session limit reached")

// accountantFor returns the named ledger session, creating it at the
// default δ on first use. Callers resolve sessions only for requests
// that already passed Prepare validation, so a rejected request can
// never mint one.
func (s *Server) accountantFor(name string) (*accounting.Ledger, error) {
	s.amu.Lock()
	defer s.amu.Unlock()
	led, ok := s.accountants[name]
	if !ok {
		if len(s.accountants) >= s.maxAccountants {
			s.sessionRefusals.Add(1)
			return nil, fmt.Errorf("%w (%d); reuse an existing session name", errSessionLimit, s.maxAccountants)
		}
		led = accounting.NewLedger(accounting.DefaultDelta)
		// bindLedger cannot fail here: New validated the ceiling
		// parameters at construction.
		if err := s.bindLedger(led, name); err != nil {
			return nil, err
		}
		s.accountants[name] = led
	}
	return led, nil
}

// AccountantSnapshots captures every named accountant session for
// persistence, keyed by session name.
func (s *Server) AccountantSnapshots() map[string]accounting.Snapshot {
	s.amu.Lock()
	defer s.amu.Unlock()
	if len(s.accountants) == 0 {
		return nil
	}
	out := make(map[string]accounting.Snapshot, len(s.accountants))
	for name, led := range s.accountants {
		out[name] = led.Snapshot()
	}
	return out
}

// Cache returns the server's shared score cache.
func (s *Server) Cache() *release.ScoreCache { return s.cache }

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/release", s.instrument("release", true, s.handleRelease))
	mux.HandleFunc("POST /v1/release/batch", s.instrument("batch", true, s.handleBatch))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", false, s.handleStats))
	mux.HandleFunc("GET /v1/traces/recent", s.instrument("traces", false, s.handleTraces))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.reg.Handler().ServeHTTP))
	return mux
}

// statusWriter captures the response status code for the request
// counter, the trace's status attribute, and the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the observability envelope: the
// request counter and latency histogram for every endpoint, and — for
// traced endpoints — a fresh obs.Trace on the context whose spans feed
// the per-stage histograms (successful spans only, so a stage's
// _count equals its successes), the recent-traces ring, and the
// structured request log.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(endpoint)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		status := strconv.Itoa(sw.status)
		s.metrics.requests.With(endpoint, status).Inc()
		s.metrics.reqDur.With(endpoint).Observe(dur.Seconds())
		if tr == nil {
			return
		}
		tr.SetAttr("status", status)
		tr.Finish(dur)
		for _, sp := range tr.Spans() {
			if sp.Err == "" {
				s.metrics.stageDur.With(sp.Name).Observe(sp.Dur.Seconds())
			}
		}
		s.traces.Add(tr)
		s.logRequest(r, tr, status, dur)
	}
}

// logRequest emits the structured per-request log record: every traced
// request at Info with the trace's attributes (mechanism, substrate,
// session, status), slow requests at Warn with per-stage durations
// appended so the offending stage is visible without fetching the
// trace.
func (s *Server) logRequest(r *http.Request, tr *obs.Trace, status string, dur time.Duration) {
	attrs := []slog.Attr{
		slog.String("trace", tr.ID),
		slog.String("endpoint", tr.Name),
		slog.String("status", status),
		slog.Duration("duration", dur),
	}
	for _, a := range tr.Attrs() {
		if a.Key == "status" {
			continue // already present from the response
		}
		attrs = append(attrs, slog.String(a.Key, a.Value))
	}
	level, msg := slog.LevelInfo, "request"
	if s.slow > 0 && dur > s.slow {
		level, msg = slog.LevelWarn, "slow request"
		for _, sp := range tr.Spans() {
			attrs = append(attrs, slog.Duration("stage_"+sp.Name, sp.Dur))
		}
	}
	s.logger.LogAttrs(r.Context(), level, msg, attrs...)
}

// TracesResponse is the GET /v1/traces/recent payload: the newest
// completed request traces, newest first, from a bounded in-memory
// ring (nothing is persisted; a restart clears it).
type TracesResponse struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, TracesResponse{Traces: s.traces.Recent()})
}

// ReleaseRequest is the JSON body of POST /v1/release (and one element
// of a batch). Exactly one of Sessions and Series must be set; Sessions
// holds arrays of integer states and refuses null (see Sessions), and
// Series is the privrelease input format (whitespace/comma-separated
// states, blank line = new session). The remaining fields mirror
// release.Config; the shared cache is always used, and Parallelism is
// the request's worker ask, granted subject to the global budget (the
// released values are identical at every grant).
type ReleaseRequest struct {
	Sessions  Sessions `json:"sessions,omitempty"`
	Series    string   `json:"series,omitempty"`
	Epsilon   float64  `json:"epsilon"`
	Delta     float64  `json:"delta,omitempty"`
	K         int      `json:"k,omitempty"`
	Mechanism string   `json:"mechanism"`
	// Noise selects the additive backend for the kantorovich
	// mechanism: "laplace" (default) or "gaussian" (requires delta).
	Noise string `json:"noise,omitempty"`
	// Substrate selects the secret model kind: "" or "chain" fits an
	// empirical Markov chain; "network" scores the Bayesian network
	// given in Network (kantorovich mechanism only).
	Substrate string `json:"substrate,omitempty"`
	// Network is the node list of a polytree Bayesian network (the
	// bayes JSON codec: [{"name", "card", "parents", "cpt"}, ...]),
	// required exactly when Substrate is "network".
	Network     json.RawMessage `json:"network,omitempty"`
	Smoothing   float64         `json:"smoothing,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
	// Accountant names a server-side Rényi ledger session. All
	// releases naming the same session share one cumulative budget,
	// surfaced on GET /v1/stats and persisted in the pufferd snapshot;
	// the response's accounting block reports the session's (ε, δ)
	// after this release. Empty means unaccounted.
	Accountant string `json:"accountant,omitempty"`
}

// BatchRequest is the JSON body of POST /v1/release/batch. The
// requests are prepared together and their quilt scores computed in
// one batched engine pass per (mechanism, ε) group, so identical
// fitted models — across requests, not just within one — are scored
// once. Any invalid request fails the whole batch with its index.
type BatchRequest struct {
	Requests []ReleaseRequest `json:"requests"`
}

// BatchResponse carries the reports, aligned with the requests.
type BatchResponse struct {
	Reports []*release.Report `json:"reports"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	RequestsTotal int64   `json:"requests_total"`
	ReleasesTotal int64   `json:"releases_total"`
	InFlight      int64   `json:"in_flight"`
	// ReleasesByMechanism breaks ReleasesTotal down per mechanism name
	// (every supported mechanism is present, zero-valued when unused),
	// so load smokes can assert the traffic mix they drove.
	ReleasesByMechanism map[string]int64 `json:"releases_by_mechanism"`
	// ReleasesBySubstrate breaks ReleasesTotal down per substrate kind
	// ("chain", "network"), each always present.
	ReleasesBySubstrate map[string]int64 `json:"releases_by_substrate"`
	Cache               struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	// InfluenceTables is the per-transition-matrix influence-table
	// layer beneath the score cache: a hit means a request reused
	// another's warmed log-ratio tables (so growing a chain by one
	// observation re-scores nearly for free), Matrices counts distinct
	// transition matrices held, and Powers the table rows built on
	// demand across them (as many as the scored quilts could read).
	InfluenceTables struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Matrices int   `json:"matrices"`
		Powers   int   `json:"powers"`
	} `json:"influence_tables"`
	Workers struct {
		Budget int `json:"budget"`
		InUse  int `json:"in_use"`
	} `json:"workers"`
	// BudgetRefusals counts releases refused because they would push
	// an accountant session past its configured (ε, δ) ceiling —
	// enforcement working, not an error.
	BudgetRefusals int64 `json:"budget_refusals"`
	// SessionRefusals counts requests refused because minting their
	// accountant session would exceed the session cap.
	SessionRefusals int64 `json:"session_refusals"`
	// ShedTotal counts scoring requests shed with 429 because the
	// worker queue was full.
	ShedTotal int64 `json:"shed_total"`
	// WAL reports the accounting journal when one is configured.
	WAL *WALStats `json:"wal,omitempty"`
	// Accountants surfaces every named Rényi ledger session: its
	// release count and its cumulative budget, the RDP-optimized ε at
	// the session's δ next to the linear Theorem 4.4 bound.
	Accountants map[string]AccountantStats `json:"accountants,omitempty"`
}

// WALStats is the /v1/stats view of the accounting journal.
type WALStats struct {
	Path string `json:"path"`
	// LastSeq is the newest durable record's sequence number.
	LastSeq uint64 `json:"last_seq"`
	// Appends counts records journaled since this process opened the
	// WAL (replayed records are not included).
	Appends int64 `json:"appends"`
}

// AccountantStats is one named accountant session's /v1/stats entry.
type AccountantStats struct {
	Releases      int     `json:"releases"`
	LinearEpsilon float64 `json:"linear_epsilon"`
	RDPEpsilon    float64 `json:"rdp_epsilon"`
	Delta         float64 `json:"delta"`
	DeltaSum      float64 `json:"delta_sum,omitempty"`
}

// sessions extracts the parsed sessions from the request body.
func (r *ReleaseRequest) sessions() ([][]int, error) {
	switch {
	case len(r.Sessions) > 0 && r.Series != "":
		return nil, errors.New("set exactly one of sessions and series, not both")
	case len(r.Sessions) > 0:
		return r.Sessions, nil
	case r.Series != "":
		return release.ParseSeries(strings.NewReader(r.Series))
	default:
		return nil, errors.New("set one of sessions and series")
	}
}

// config maps the request onto release.Config with the shared cache.
// The accountant session is attached separately, after validation. A
// network body that does not parse fails here; whether a network is
// allowed or required for the substrate kind is release.Prepare's
// call.
func (r *ReleaseRequest) config(cache *release.ScoreCache) (release.Config, error) {
	cfg := release.Config{
		Epsilon:     r.Epsilon,
		Delta:       r.Delta,
		K:           r.K,
		Mechanism:   r.Mechanism,
		Noise:       r.Noise,
		Substrate:   r.Substrate,
		Smoothing:   r.Smoothing,
		Seed:        r.Seed,
		Parallelism: r.Parallelism,
		Cache:       cache,
	}
	if len(r.Network) > 0 {
		nw, err := bayes.ParseJSON(r.Network)
		if err != nil {
			return release.Config{}, err
		}
		cfg.Network = nw
	}
	return cfg, nil
}

// prepare parses and validates one request. The named accountant
// session is resolved (and, on first use, created) only once the
// request is known to be valid, so failed requests can neither mint
// garbage sessions nor bloat the persisted snapshot. The resolved
// ledger (nil when unaccounted) is returned so handlers can run the
// pre-scoring ceiling check.
func (s *Server) prepare(ctx context.Context, req *ReleaseRequest) (*release.Prepared, *accounting.Ledger, error) {
	sessions, err := req.sessions()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := req.config(s.cache)
	if err != nil {
		return nil, nil, err
	}
	p, err := release.PrepareContext(ctx, sessions, cfg)
	if err != nil {
		return nil, nil, err
	}
	var led *accounting.Ledger
	if req.Accountant != "" {
		led, err = s.accountantFor(req.Accountant)
		if err != nil {
			return nil, nil, err
		}
		p.SetAccountant(led, req.Accountant)
	}
	return p, led, nil
}

// requestContext derives the handler context, applying the configured
// request timeout so the deadline propagates through every pipeline
// stage (budget wait, scoring, finish).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return r.Context(), func() {}
}

// checkCeiling runs the pre-scoring budget check for one prepared
// request: the exact entry Finish will charge is simulated against
// the session's ceiling, so a doomed release is refused before any
// scoring work. led may be nil (unaccounted request).
func (s *Server) checkCeiling(p *release.Prepared, led *accounting.Ledger) error {
	if led == nil {
		return nil
	}
	planned, err := p.PlannedEntry()
	if err != nil {
		return err
	}
	if err := led.CheckCharge(planned); err != nil {
		if errors.Is(err, accounting.ErrCeilingExceeded) {
			s.budgetRefusals.Add(1)
		}
		return err
	}
	return nil
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.requests.Add(1)

	ctx, cancel := s.requestContext(r)
	defer cancel()
	var req ReleaseRequest
	if err := decodeJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, led, err := s.prepare(ctx, &req)
	if err != nil {
		httpError(w, prepareErrStatus(err), err)
		return
	}
	tr := obs.TraceFrom(ctx)
	tr.SetAttr("mechanism", p.Mechanism())
	tr.SetAttr("substrate", p.SubstrateKind())
	if req.Accountant != "" {
		tr.SetAttr("session", req.Accountant)
	}
	_, csp := obs.StartSpan(ctx, "ceiling")
	err = s.checkCeiling(p, led)
	csp.EndErr(err)
	if err != nil {
		httpError(w, chargeErrStatus(err), err)
		return
	}
	if s.scoringHook != nil {
		s.scoringHook()
	}
	var score core.ChainScore
	if p.NeedsScore() {
		_, wsp := obs.StartSpan(ctx, "wait")
		grant, err := s.budget.acquire(ctx, req.Parallelism)
		wsp.EndErr(err)
		if err != nil {
			s.acquireError(w, err)
			return
		}
		p.SetParallelism(grant)
		_, ssp := obs.StartSpan(ctx, "score")
		score, err = p.Score(ctx)
		ssp.EndErr(err)
		s.budget.release(grant)
		if err != nil {
			httpError(w, scoreErrStatus(err), err)
			return
		}
	}
	report, err := p.FinishContext(ctx, score)
	if err != nil {
		httpError(w, s.finishErrStatus(err), err)
		return
	}
	s.releases.Add(1)
	s.countRelease(p.Mechanism(), p.SubstrateKind())
	writeJSON(w, report)
}

// acquireError writes a failed budget wait: a shed request gets 429
// with Retry-After (the queue was full; backing off helps), a
// cancelled or timed-out wait 503.
func (s *Server) acquireError(w http.ResponseWriter, err error) {
	if errors.Is(err, errShed) {
		s.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	httpError(w, http.StatusServiceUnavailable, err)
}

// prepareErrStatus classifies a prepare failure: refusing to mint a
// session is enforcement (403), a dead context is the request's
// deadline (503), everything else is a bad request.
func prepareErrStatus(err error) int {
	switch {
	case errors.Is(err, errSessionLimit):
		return http.StatusForbidden
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// chargeErrStatus classifies a refused charge: past the ceiling is a
// hard 403 — the request was understood and is permanently refused;
// retrying cannot help, which is exactly what distinguishes it from
// 429 (shed; retry later) and 503 (deadline; maybe retry).
func chargeErrStatus(err error) int {
	if errors.Is(err, accounting.ErrCeilingExceeded) {
		return http.StatusForbidden
	}
	return http.StatusUnprocessableEntity
}

// finishErrStatus classifies a Finish failure, counting ceiling races
// (a concurrent charge on the same session won between CheckCharge
// and Add) as budget refusals.
func (s *Server) finishErrStatus(err error) int {
	switch {
	case errors.Is(err, accounting.ErrCeilingExceeded):
		s.budgetRefusals.Add(1)
		return http.StatusForbidden
	case errors.Is(err, accounting.ErrJournal):
		// The journal could not make the charge durable, so the charge
		// did not happen and no data was released: a server-side fault.
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// countRelease bumps the per-mechanism and per-substrate counters and
// the labeled release metric; both keys were validated by Prepare, so
// the lookups never miss.
func (s *Server) countRelease(mech, substrate string) {
	if c, ok := s.byMech[mech]; ok {
		c.Add(1)
	}
	if c, ok := s.bySubstrate[substrate]; ok {
		c.Add(1)
	}
	s.metrics.releases.With(mech, substrate).Inc()
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.requests.Add(1)

	ctx, cancel := s.requestContext(r)
	defer cancel()
	var batch BatchRequest
	if err := decodeJSON(w, r, &batch); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(batch.Requests) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	prepared := make([]*release.Prepared, len(batch.Requests))
	ledgers := make([]*accounting.Ledger, len(batch.Requests))
	for i := range batch.Requests {
		p, led, err := s.prepare(ctx, &batch.Requests[i])
		if err != nil {
			httpError(w, prepareErrStatus(err), fmt.Errorf("request %d: %w", i, err))
			return
		}
		prepared[i] = p
		ledgers[i] = led
	}
	obs.TraceFrom(ctx).SetAttr("batch_size", strconv.Itoa(len(batch.Requests)))
	_, csp := obs.StartSpan(ctx, "ceiling")
	err := s.checkBatchCeilings(prepared, ledgers)
	csp.EndErr(err)
	if err != nil {
		httpError(w, chargeErrStatus(err), err)
		return
	}
	if s.scoringHook != nil {
		s.scoringHook()
	}
	scores, status, err := s.scoreBatch(ctx, batch.Requests, prepared)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, status, err)
		return
	}
	resp := BatchResponse{Reports: make([]*release.Report, len(prepared))}
	for i, p := range prepared {
		report, err := p.FinishContext(ctx, scores[i])
		if err != nil {
			// Earlier members of the batch already charged their
			// accountant sessions. That is deliberate: their noisy
			// histograms were computed, and privacy accounting charges
			// at computation, not delivery — under-counting on a
			// partial failure would be the unsafe direction. A client
			// retrying a failed batch with the same session pays again.
			httpError(w, s.finishErrStatus(err), fmt.Errorf("request %d: %w", i, err))
			return
		}
		resp.Reports[i] = report
	}
	s.releases.Add(int64(len(resp.Reports)))
	for _, p := range prepared {
		s.countRelease(p.Mechanism(), p.SubstrateKind())
	}
	writeJSON(w, resp)
}

// checkBatchCeilings runs the pre-scoring budget check for a whole
// batch, cumulatively per session: a batch whose members individually
// fit the ceiling but jointly breach it is refused up front, because
// Finish would charge them in sequence and strand the batch half-way.
func (s *Server) checkBatchCeilings(prepared []*release.Prepared, ledgers []*accounting.Ledger) error {
	planned := map[*accounting.Ledger][]accounting.Entry{}
	for i, led := range ledgers {
		if led == nil {
			continue
		}
		e, err := prepared[i].PlannedEntry()
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		planned[led] = append(planned[led], e)
	}
	for led, entries := range planned {
		if err := led.CheckCharge(entries...); err != nil {
			if errors.Is(err, accounting.ErrCeilingExceeded) {
				s.budgetRefusals.Add(1)
			}
			return err
		}
	}
	return nil
}

// scoreBatch computes the quilt scores of every prepared request that
// needs one, grouped by (mechanism, ε) and routed through the batched
// multi-length scorers so identical fitted models dedupe across
// requests. One worker grant covers the whole batch: the engine fans
// each group across a single pool of the granted size. Groups are
// scored in first-member order, so a batch that fails part-way leaves
// the same cache state on every run.
func (s *Server) scoreBatch(ctx context.Context, reqs []ReleaseRequest, prepared []*release.Prepared) ([]core.ChainScore, int, error) {
	scores := make([]core.ChainScore, len(prepared))
	type groupKey struct {
		mechanism string
		eps       float64
	}
	groups := map[groupKey][]int{}
	var order []groupKey // groups by first member
	var individual []int // network-substrate members: no Class to dedupe on
	want := 0
	for i, p := range prepared {
		if !p.NeedsScore() {
			continue
		}
		if p.Class() == nil {
			individual = append(individual, i)
		} else {
			key := groupKey{mechanism: p.Mechanism(), eps: p.Epsilon()}
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], i)
		}
		switch ask := reqs[i].Parallelism; {
		case ask <= 0:
			want = -1 // one unbounded ask claims everything free
		case want >= 0 && ask > want:
			want = ask
		}
	}
	if len(groups) == 0 && len(individual) == 0 {
		return scores, 0, nil
	}
	_, wsp := obs.StartSpan(ctx, "wait")
	grant, err := s.budget.acquire(ctx, want)
	wsp.EndErr(err)
	if err != nil {
		if errors.Is(err, errShed) {
			s.shedTotal.Add(1)
			return nil, http.StatusTooManyRequests, err
		}
		return nil, http.StatusServiceUnavailable, err
	}
	defer s.budget.release(grant)
	if err := ctx.Err(); err != nil {
		return nil, http.StatusServiceUnavailable, err
	}
	// One "score" span covers the whole batch's scoring work — the
	// grouped engine passes dedupe across requests, so per-member
	// attribution would be fiction.
	_, ssp := obs.StartSpan(ctx, "score")
	for _, key := range order {
		members := groups[key]
		specs := make([]core.MultiSpec, len(members))
		for j, i := range members {
			specs[j] = core.MultiSpec{Class: prepared[i].Class(), Lengths: prepared[i].Lengths()}
		}
		var got []core.ChainScore
		var err error
		switch key.mechanism {
		case release.MechMQMExact:
			got, err = core.ExactScoreMultiBatch(s.cache, specs, key.eps, core.ExactOptions{Parallelism: grant})
		case release.MechKantorovich:
			got, err = kantorovich.ScoreBatch(s.cache, specs, key.eps, kantorovich.Options{Parallelism: grant})
		default:
			got, err = core.ApproxScoreMultiBatch(s.cache, specs, key.eps, core.ApproxOptions{Parallelism: grant})
		}
		if err != nil {
			ssp.EndErr(err)
			return nil, scoreErrStatus(err), err
		}
		for j, i := range members {
			scores[i] = got[j]
		}
	}
	// Network-substrate members score one by one under the same grant:
	// they carry no markov.Class for the multi-length dedupe, but the
	// shared cache still serves repeated networks across requests.
	for _, i := range individual {
		prepared[i].SetParallelism(grant)
		got, err := prepared[i].Score(ctx)
		if err != nil {
			ssp.EndErr(err)
			return nil, scoreErrStatus(err), err
		}
		scores[i] = got
	}
	ssp.End()
	return scores, 0, nil
}

// scoreErrStatus classifies a scoring failure: a cancelled or timed-out
// request is the connection's fault (503, matching a failed budget
// wait), while everything else scoring can return is input-derived —
// Prepare already validated the class shape — so it is the client's
// request (422), not a server fault.
func scoreErrStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	var st Stats
	st.UptimeSeconds = time.Since(s.started).Seconds()
	// The counters are independent atomics, so a scrape during traffic
	// is inherently a torn read — but handlers write in the fixed order
	// requests → releases → per-mechanism/per-substrate parts, so
	// reading in the exact reverse order bounds the tear to one safe
	// direction: sum(by_mechanism) ≤ releases_total ≤ requests_total in
	// every snapshot, and ratios computed from one snapshot never
	// exceed 1. The orderings agree exactly once traffic quiesces.
	st.ReleasesByMechanism = make(map[string]int64, len(s.byMech))
	for m, c := range s.byMech {
		st.ReleasesByMechanism[m] = c.Load()
	}
	st.ReleasesBySubstrate = make(map[string]int64, len(s.bySubstrate))
	for sub, c := range s.bySubstrate {
		st.ReleasesBySubstrate[sub] = c.Load()
	}
	st.ReleasesTotal = s.releases.Load()
	st.RequestsTotal = s.requests.Load()
	st.InFlight = s.inFlight.Load()
	cs := s.cache.Stats()
	st.Cache.Hits = cs.Hits
	st.Cache.Misses = cs.Misses
	st.Cache.Entries = s.cache.Len()
	ts := s.cache.TableStats()
	st.InfluenceTables.Hits = ts.Hits
	st.InfluenceTables.Misses = ts.Misses
	st.InfluenceTables.Matrices = ts.Matrices
	st.InfluenceTables.Powers = ts.Powers
	st.Workers.Budget = s.budget.total
	st.Workers.InUse = s.budget.inUse()
	st.BudgetRefusals = s.budgetRefusals.Load()
	st.SessionRefusals = s.sessionRefusals.Load()
	st.ShedTotal = s.shedTotal.Load()
	if s.wal != nil {
		st.WAL = &WALStats{
			Path:    s.wal.Path(),
			LastSeq: s.wal.LastSeq(),
			Appends: s.wal.Appends(),
		}
	}
	s.amu.Lock()
	names := make([]string, 0, len(s.accountants))
	for name := range s.accountants {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		st.Accountants = make(map[string]AccountantStats, len(names))
	}
	leds := make([]*accounting.Ledger, len(names))
	for i, name := range names {
		leds[i] = s.accountants[name]
	}
	s.amu.Unlock()
	// Epsilon conversions run outside amu: they take each ledger's own
	// lock and can do an α-grid scan on a cold memo.
	for i, name := range names {
		led := leds[i]
		st.Accountants[name] = AccountantStats{
			Releases:      led.Count(),
			LinearEpsilon: led.LinearEpsilon(),
			RDPEpsilon:    led.TotalEpsilon(),
			Delta:         led.Delta(),
			DeltaSum:      led.DeltaSum(),
		}
	}
	return st
}

// maxBodyBytes bounds request bodies; it matches ParseSeries's maximum
// input line budget.
const maxBodyBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// A body must be exactly one JSON value: silently processing only
	// the first of two concatenated requests would drop the second.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("bad request body: trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client went away; nothing to do
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
