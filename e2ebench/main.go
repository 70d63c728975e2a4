// Command e2ebench measures pufferd end to end: an in-process server
// behind a loopback listener, driven by one closed-loop client over one
// keep-alive connection, on three workloads that each spend most of
// their time in a different layer (see README.md).
//
//	e2ebench --workload fresh-data|warm-repeat|accounted-wal \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object
// with every end-to-end metric; with --trace 1 it carries the per-layer
// metrics of a traced run, whose spans are also written as JSON lines.
// The exit code is non-zero on any incorrect response or failed
// self-check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"pufferfish/internal/faultfs"
	"pufferfish/internal/server"
)

// setupReps is how many times a run sets the server up; setup_s is
// their median and the last one serves the timed phase.
const setupReps = 5

// oracleEvery is fresh-data's oracle sample: one request in eight is
// recomputed (the pool workloads check every response).
const oracleEvery = 8

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "nominal length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for journals and span dumps")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1:", err)
		os.Exit(2)
	}
	work := filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	r := &runner{w: w, seed: *seed, work: work, fail: &failures{}}
	var res *result
	if *trace == 1 {
		res, err = r.traced(*seconds, *out)
	} else {
		res, err = r.timed(*seconds)
	}
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// runner carries one run's inputs and failures.
type runner struct {
	w    *workload
	seed uint64
	work string
	fail *failures
	in   *inputs
	// carried is accounted-wal's generated durable state.
	carried *carried
	// charged counts acknowledged charges per session on the serving
	// instance, warm-up included.
	charged map[string]int
	fs      *syncFS
	// replays holds each set-up's OpenDurable time.
	replays []float64
	// warm is the warm-up pass the serving instance got.
	warm []*request
}

// prepare generates every input from the seed (not part of set-up).
func (r *runner) prepare(blocks int) error {
	r.in = newInputs(r.w, r.seed, blocks)
	if r.w.sessions > 0 {
		c, err := writeCarried(r.in, filepath.Join(r.work, "carried"))
		if err != nil {
			return fmt.Errorf("generate carried-over state: %w", err)
		}
		r.carried = c
	}
	return nil
}

// setup boots and warms the server setupReps times and returns the
// last instance with the median set-up time. Each boot starts from the
// same generated state; set-up time covers boot (with the durable
// restore) and the warm-up pass. r.warm records the requests of the
// pass, fill blocks included.
func (r *runner) setup(dir string, wrap func(http.Handler) http.Handler) (*instance, float64, error) {
	var times []float64
	var inst *instance
	for rep := 0; rep < setupReps; rep++ {
		if r.carried != nil {
			if err := r.carried.copyState(dir); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		r.fs = &syncFS{FS: faultfs.OS}
		r.charged = map[string]int{}
		t0 := time.Now()
		var replay time.Duration
		var err error
		inst, replay, err = boot(r.w, r.fs, dir, wrap)
		if err != nil {
			return nil, 0, err
		}
		r.warm, err = r.warmUp(inst)
		if err != nil {
			inst.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		r.replays = append(r.replays, replay.Seconds())
		if rep < setupReps-1 {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
	}
	return inst, median(times), nil
}

// warmUp sends the warm-up pass, then fill blocks until one leaves the
// number of matrices with resident influence tables unchanged: the
// program's bound on that set is reached, and every later fresh model
// gets tables private to its call. It returns the requests it sent.
func (r *runner) warmUp(inst *instance) ([]*request, error) {
	cl := newClient(inst.base)
	defer cl.close()
	var body bytes.Buffer
	var sent []*request
	sendAll := func(reqs []*request) error {
		for _, req := range reqs {
			if o := send(cl, req, &body); o.err != nil {
				return fmt.Errorf("warm-up request %d (%s): %w", req.idx, req.className(), o.err)
			}
			countCharges(r.charged, req)
			sent = append(sent, req)
		}
		return nil
	}
	if err := sendAll(r.in.warmup()); err != nil {
		return nil, err
	}
	if len(r.in.fill) == 0 {
		return sent, nil
	}
	resident := inst.srv.Stats().InfluenceTables.Matrices
	for _, block := range r.in.fill {
		if err := sendAll(block); err != nil {
			return nil, err
		}
		now := inst.srv.Stats().InfluenceTables.Matrices
		if now == resident {
			return sent, nil
		}
		resident = now
	}
	return nil, fmt.Errorf("resident influence tables still growing after %d fill blocks (%d matrices)", len(r.in.fill), resident)
}

// countCharges adds the request's charged members to charged, by
// session.
func countCharges(charged map[string]int, req *request) {
	for _, m := range req.members {
		if m.account != "" {
			charged[m.account]++
		}
	}
}

// phase is one stretch of timed traffic and what it measured.
type phase struct {
	attempted, ok, releases int
	wall                    time.Duration
	lats                    []float64 // per request, ms
	classes                 []string  // per request, aligned with lats
	busy                    time.Duration
	statuses                map[int]int
	before, after           server.Stats
	syncs                   int64
	cpu                     time.Duration
	mallocs                 uint64
	gcs                     uint32
	// checks are the replies left for the oracle, by request index.
	checks map[int][]wireReport
}

// drive sends requests [from, to) of the timed sequence.
func (r *runner) drive(inst *instance, from, to int) *phase {
	p := &phase{statuses: map[int]int{}, checks: map[int][]wireReport{}}
	cl := newClient(inst.base)
	defer cl.close()
	var body bytes.Buffer
	p.before = inst.srv.Stats()
	syncs0 := r.fs.syncs.Load()
	cpu0 := cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := from; i < to; i++ {
		req := r.in.timed(i)
		o := send(cl, req, &body)
		p.attempted++
		p.statuses[o.status]++
		if o.err != nil {
			r.fail.add("request %d (%s): %v", i, req.className(), o.err)
		} else {
			p.ok++
			p.releases += len(req.members)
			p.busy += o.lat
			p.lats = append(p.lats, ms(o.lat))
			p.classes = append(p.classes, req.className())
			countCharges(r.charged, req)
			if r.w.poolSize > 0 || (i+int(r.seed))%oracleEvery == 0 {
				p.checks[i] = o.reports
			}
		}
	}
	p.wall = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.cpu = cpuTime() - cpu0
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcs = ms1.NumGC - ms0.NumGC
	p.syncs = r.fs.syncs.Load() - syncs0
	p.after = inst.srv.Stats()
	return p
}

// selfCheck fails the run when the phase stopped exercising the
// workload's layer, and prints the counts it judged.
func (r *runner) selfCheck(p *phase) {
	hits := p.after.Cache.Hits - p.before.Cache.Hits
	misses := p.after.Cache.Misses - p.before.Cache.Misses
	appends := int64(0)
	if p.after.WAL != nil {
		appends = p.after.WAL.Appends - p.before.WAL.Appends
	}
	accounted := 0
	if r.w.sessions > 0 {
		accounted = p.releases
	}
	refused := p.statuses[http.StatusForbidden] + p.statuses[http.StatusTooManyRequests]
	fmt.Printf("self-check: score_hits=%d score_misses=%d journal_records=%d accounted_releases=%d fsyncs=%d refused_403_429=%d resident_matrices=%d->%d\n",
		hits, misses, appends, accounted, p.syncs, refused, p.before.InfluenceTables.Matrices, p.after.InfluenceTables.Matrices)
	if r.w.poolSize == 0 && hits != 0 {
		r.fail.add("fresh data hit the score cache %d times", hits)
	}
	if r.w.poolSize == 0 && misses == 0 {
		r.fail.add("fresh data never missed the score cache")
	}
	if r.w.fillsTables && p.after.InfluenceTables.Matrices != p.before.InfluenceTables.Matrices {
		r.fail.add("resident influence tables grew from %d to %d matrices after set-up filled them",
			p.before.InfluenceTables.Matrices, p.after.InfluenceTables.Matrices)
	}
	if r.w.poolSize > 0 && misses != 0 {
		r.fail.add("warm workload missed the score cache %d times", misses)
	}
	if r.w.poolSize > 0 && hits == 0 {
		r.fail.add("warm workload never hit the score cache")
	}
	if appends != int64(accounted) {
		r.fail.add("%d journal records for %d accounted releases", appends, accounted)
	}
	if refused != 0 {
		r.fail.add("%d requests refused with 403/429", refused)
	}
}

// verify runs the oracle over the phase's retained replies.
func (r *runner) verify(p *phase, o *oracle) int {
	idx := make([]int, 0, len(p.checks))
	for i := range p.checks {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	bad := 0
	for _, i := range idx {
		if err := o.check(r.in.timed(i), p.checks[i]); err != nil {
			r.fail.add("oracle, request %d: %v", i, err)
			bad++
		}
	}
	return bad
}

// timed is the end-to-end run.
func (r *runner) timed(seconds float64) (*result, error) {
	if err := r.prepare(r.w.blocks(seconds)); err != nil {
		return nil, err
	}
	dir := filepath.Join(r.work, "boot")
	inst, setupS, err := r.setup(dir, nil)
	if err != nil {
		return nil, err
	}
	p := r.drive(inst, 0, r.in.timedCount())
	rss := peakRSSMB()
	r.selfCheck(p)
	if err := inst.close(); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	bad := r.verify(p, newOracle())
	if r.carried != nil {
		checkJournal(r.carried, dir, r.charged, p.after.Accountants, r.fail)
	}
	r.summary(p, setupS)
	rate, p50, p95 := p.endToEnd()
	failed := p.attempted - p.ok + bad
	res := &result{
		Correct:   r.fail.count() == 0,
		Attempted: p.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"releases_per_s": {Value: rate, Unit: "1/s"},
			"latency_p50_ms": {Value: p50, Unit: "ms"},
			"latency_p95_ms": {Value: p95, Unit: "ms"},
			"success_rate":   {Value: float64(p.attempted-failed) / float64(p.attempted), Unit: "ratio"},
			"setup_s":        {Value: setupS, Unit: "s"},
			"peak_rss_mb":    {Value: rss, Unit: "MB"},
		},
	}
	return res, nil
}

// endToEnd returns the phase's throughput (releases per second of
// summed request time), p50 and p95.
func (p *phase) endToEnd() (rate, p50, p95 float64) {
	sorted := append([]float64(nil), p.lats...)
	sort.Float64s(sorted)
	return float64(p.releases) / p.busy.Seconds(), quantile(sorted, 0.50), quantile(sorted, 0.95)
}

// summary prints the per-class latency table of a phase.
func (r *runner) summary(p *phase, setupS float64) {
	fmt.Printf("workload %s seed %d: %d requests, %d releases, %.3fs busy of %.3fs, set-up %.3fs\n",
		r.w.name, r.seed, p.attempted, p.releases, p.busy.Seconds(), p.wall.Seconds(), setupS)
	byClass := map[string][]float64{}
	for i, c := range p.classes {
		byClass[c] = append(byClass[c], p.lats[i])
	}
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-14s %6s %9s %9s %9s %7s\n", "class", "n", "p50_ms", "p95_ms", "max_ms", "time%")
	for _, n := range names {
		xs := byClass[n]
		sort.Float64s(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		fmt.Printf("  %-14s %6d %9.3f %9.3f %9.3f %6.1f%%\n", n, len(xs), quantile(xs, 0.5), quantile(xs, 0.95),
			xs[len(xs)-1], 100*sum/ms(p.busy))
	}
	fmt.Printf("  classes around p50: %s; around p95: %s\n", classesAt(p, 0.5), classesAt(p, 0.95))
}

// classesAt lists the request classes found within ±2.5% of rank q of
// the sorted latencies, with their shares: a quantile that sits inside
// one class shows a single class at 100%.
func classesAt(p *phase, q float64) string {
	idx := make([]int, len(p.lats))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.lats[idx[a]] < p.lats[idx[b]] })
	n := float64(len(idx))
	lo, hi := int((q-0.025)*n), min(int((q+0.025)*n), len(idx))
	counts := map[string]int{}
	for _, i := range idx[lo:hi] {
		counts[p.classes[i]]++
	}
	var out []string
	for c, k := range counts {
		out = append(out, fmt.Sprintf("%s %.0f%%", c, 100*float64(k)/float64(hi-lo)))
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's max resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
