package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/server"
)

// ceilingEps is the per-session ε ceiling of accounted-wal. A run
// reaches ε ≈ 100 per session, so the check runs on every charge and
// never refuses.
const ceilingEps = 10000

// reqHeader carries the request index to the handler span.
const reqHeader = "X-Bench-Req"

// instance is one booted pufferd: the server behind a loopback
// listener, and its WAL when durable.
type instance struct {
	srv  *server.Server
	hs   *http.Server
	wal  *wal.Writer
	base string
	done chan error
}

// boot starts a server over a fresh cache, or, for durable workloads,
// over the snapshot and journal in dir. wrap, when set, wraps the
// mounted handler (the trace run's handler span). It returns the time
// OpenDurable took (0 when not durable).
func boot(w *workload, fsys faultfs.FS, dir string, wrap func(http.Handler) http.Handler) (*instance, time.Duration, error) {
	cfg := server.Config{}
	var replay time.Duration
	in := &instance{}
	if w.sessions > 0 {
		t0 := time.Now()
		st, err := server.OpenDurable(fsys, faultfs.WallClock{}, filepath.Join(dir, "snapshot.json"), filepath.Join(dir, "journal.wal"))
		if err != nil {
			return nil, 0, fmt.Errorf("open durable state: %w", err)
		}
		replay = time.Since(t0)
		cfg.Cache, cfg.Accountants, cfg.WAL = st.Cache, st.Accountants, st.WAL
		cfg.CeilingEps = ceilingEps
		in.wal = st.WAL
	}
	in.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.closeWAL()
		return nil, 0, err
	}
	h := in.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in.hs = &http.Server{Handler: h}
	in.base = "http://" + ln.Addr().String()
	in.done = make(chan error, 1)
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, replay, nil
}

func (in *instance) closeWAL() error {
	if in.wal == nil {
		return nil
	}
	return in.wal.Close()
}

// close shuts the server down, waits for Serve to return, and closes
// the WAL.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, in.closeWAL())
}

// client is the single closed-loop client: one keep-alive connection,
// the next request sent only after the previous reply is read.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	resp bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

// do posts body and reads the whole reply; the duration covers send to
// last byte read.
func (c *client) do(path string, body []byte, id int) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(id))
	c.resp.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	return resp.StatusCode, d, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// wireReport is the part of a release report the benchmark checks.
type wireReport struct {
	Mechanism  string    `json:"mechanism"`
	K          int       `json:"k"`
	Sigma      float64   `json:"sigma"`
	NoiseScale float64   `json:"noise_scale"`
	Histogram  []float64 `json:"histogram"`
	Accounting *struct {
		Accountant string `json:"accountant"`
	} `json:"accounting"`
}

// parseReply decodes a 200 reply into one report per member and runs
// the shape checks every response gets.
func parseReply(r *request, blob []byte) ([]wireReport, error) {
	var reps []wireReport
	if len(r.members) > 1 {
		var b struct {
			Reports []wireReport `json:"reports"`
		}
		if err := json.Unmarshal(blob, &b); err != nil {
			return nil, err
		}
		reps = b.Reports
	} else {
		var one wireReport
		if err := json.Unmarshal(blob, &one); err != nil {
			return nil, err
		}
		reps = []wireReport{one}
	}
	if len(reps) != len(r.members) {
		return nil, fmt.Errorf("%d reports for %d members", len(reps), len(r.members))
	}
	for j, rep := range reps {
		m := &r.members[j]
		switch {
		case rep.Mechanism != m.class.mech:
			return nil, fmt.Errorf("member %d: mechanism %q, want %q", j, rep.Mechanism, m.class.mech)
		case rep.K != m.class.k || len(rep.Histogram) != m.class.k:
			return nil, fmt.Errorf("member %d: k = %d with %d cells, want %d", j, rep.K, len(rep.Histogram), m.class.k)
		case !(rep.NoiseScale > 0) || math.IsInf(rep.NoiseScale, 0):
			return nil, fmt.Errorf("member %d: noise scale %v", j, rep.NoiseScale)
		case (rep.Accounting == nil) != (m.account == ""):
			return nil, fmt.Errorf("member %d: accounting block present = %v, want %v", j, rep.Accounting != nil, m.account != "")
		case rep.Accounting != nil && rep.Accounting.Accountant != m.account:
			return nil, fmt.Errorf("member %d: charged %q, want %q", j, rep.Accounting.Accountant, m.account)
		}
		for _, v := range rep.Histogram {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("member %d: non-finite histogram cell", j)
			}
		}
	}
	return reps, nil
}

// outcome is what one timed request returned.
type outcome struct {
	status  int
	lat     time.Duration
	reports []wireReport // nil unless 200 and well-formed
	err     error
}

// send renders, posts and parses one request.
func send(c *client, r *request, body *bytes.Buffer) outcome {
	r.render(body)
	status, lat, err := c.do(r.path(), body.Bytes(), r.idx)
	o := outcome{status: status, lat: lat, err: err}
	if err != nil {
		return o
	}
	if status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.resp.Bytes()))
		return o
	}
	o.reports, o.err = parseReply(r, c.resp.Bytes())
	return o
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// failures counts correctness and self-check failures, all found on
// the main goroutine; the first few are reported on stderr, and any
// makes the run exit non-zero.
type failures struct{ n int }

func (f *failures) add(format string, args ...any) {
	if f.n < 20 {
		fmt.Fprintln(os.Stderr, "FAIL:", fmt.Sprintf(format, args...))
	}
	f.n++
}

func (f *failures) count() int { return f.n }
