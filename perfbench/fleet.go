package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pair/internal/campaign"
	"pair/internal/faults"
	"pair/internal/fleet"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// fleetParams describe the job every fleet-campaign op submits: an
// F13-style matrix of pattern fault scenarios x schemes in small shards,
// served by Workers in-process workers polling every PollMS.
type fleetParams struct {
	Schemes   []string `json:"schemes"`
	Scenarios []string `json:"scenarios"`
	Trials    int      `json:"trials"`
	ShardSize int      `json:"shard_size"`
	Workers   int      `json:"workers"`
	PollMS    int      `json:"poll_ms"`
	Namespace string   `json:"namespace"`
}

// jobTimeout bounds one job; a healthy job takes well under a second.
const jobTimeout = 60 * time.Second

type fleetBench struct {
	p      fleetParams
	tr     *tracer
	dir    string
	spec   fleet.JobSpec
	shards int64 // per job
	ref    []fleet.CampaignResult

	coord      *fleet.Coordinator
	srv        *http.Server
	served     chan error
	client     *fleet.Client
	transports []*http.Transport
	cancel     context.CancelFunc
	workers    sync.WaitGroup
	workerErrs chan error
	warnings   atomic.Int64

	// tracing: the op and job span worker-side spans are attributed to,
	// and counts over the traced phase
	curOp, curSpan                  atomic.Int32
	rpcs, retries, reissued, renews atomic.Int64
	duplicates                      atomic.Int64
	nJob, nLease, nComplete, nRenew uint16
	nCoordLease, nCoordComplete     uint16
	nCompute, nIdle                 uint16
}

func openFleet(cfg runConfig, tr *tracer) (instance, error) {
	f := &fleetBench{tr: tr}
	if err := json.Unmarshal(cfg.params, &f.p); err != nil {
		return nil, fmt.Errorf("fleet params: %w", err)
	}
	if f.p.Trials < 1 || f.p.Workers < 1 || f.p.PollMS < 1 {
		return nil, fmt.Errorf("fleet params: trials, workers and poll_ms must be positive: %+v", f.p)
	}
	f.spec = fleet.JobSpec{
		Namespace: f.p.Namespace, Schemes: f.p.Schemes, Scenarios: f.p.Scenarios,
		Trials: f.p.Trials, ShardSize: f.p.ShardSize, Seed: cfg.seed,
	}
	f.curOp.Store(-1)
	f.curSpan.Store(-1)
	f.nJob = tr.name("fleet.job")
	f.nLease = tr.name("fleet.lease")
	f.nComplete = tr.name("fleet.complete")
	f.nRenew = tr.name("fleet.renew")
	f.nCoordLease = tr.name("fleet.coord.lease")
	f.nCoordComplete = tr.name("fleet.coord.complete")
	f.nCompute = tr.name("fleet.shard_compute")
	f.nIdle = tr.name("fleet.worker_idle")

	if err := f.reference(); err != nil {
		return nil, err
	}
	if err := f.start(cfg.stateDir); err != nil {
		f.close()
		return nil, err
	}
	// Warm-up op: connections, pools and the journal reach steady state.
	res, err := f.runJob()
	if err := f.check(res, err); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return f, nil
}

// reference runs the job's campaign matrix locally through campaign.Run,
// scenario-outer and scheme-inner like the coordinator expands it.
func (f *fleetBench) reference() error {
	schemeObjs, err := schemes.Build(f.p.Schemes)
	if err != nil {
		return err
	}
	scenarios, err := faults.BuildScenarios(f.p.Scenarios)
	if err != nil {
		return err
	}
	opts := campaign.Options{Namespace: f.p.Namespace}
	for _, sc := range scenarios {
		for _, s := range schemeObjs {
			cs := reliability.ScenarioCampaignSpec(s, sc, f.p.Trials, f.spec.Seed)
			cs.ShardSize = f.p.ShardSize
			counts, err := campaign.Run(context.Background(), cs, opts, reliability.ScenarioShardFn(s, sc), reliability.MergeCounts)
			if err != nil {
				return err
			}
			f.ref = append(f.ref, fleet.CampaignResult{
				Label: campaign.JoinLabel(f.p.Namespace, cs.Label), Trials: cs.Trials, Counts: counts,
			})
			f.shards += int64(cs.NumShards())
		}
	}
	return nil
}

// start brings up the coordinator (journal + checkpoints under a fresh
// directory), its loopback HTTP server, the workers and the client.
func (f *fleetBench) start(stateDir string) error {
	root := filepath.Join(stateDir, "fleet")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return err
	}
	f.dir = dir
	f.coord, err = fleet.NewCoordinator(fleet.CoordinatorOptions{
		CheckpointDir: filepath.Join(dir, "checkpoints"),
		JournalDir:    filepath.Join(dir, "journal"),
		Warnf:         f.warnf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: f.coordHandler(f.coord.Handler())}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()

	f.client = fleet.NewClientWith(base, fleet.ClientOptions{HTTP: f.httpClient(false), Warnf: f.warnf})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.workerErrs = make(chan error, f.p.Workers)
	for i := range f.p.Workers {
		w := fleet.NewWorker(base, fleet.WorkerOptions{
			ID:    "w" + strconv.Itoa(i),
			Poll:  time.Duration(f.p.PollMS) * time.Millisecond,
			HTTP:  f.httpClient(true),
			Warnf: f.warnf,
		})
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			f.workerErrs <- w.Run(ctx)
		}()
	}
	return nil
}

// httpClient returns the transport of one fleet client. Untraced runs
// get nil, the fleet default; traced runs get a timing RoundTripper that
// records only while the tracer is on.
func (f *fleetBench) httpClient(worker bool) *http.Client {
	if f.tr == nil {
		return nil
	}
	t := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: fleet.DefaultDialTimeout}).DialContext,
		ResponseHeaderTimeout: fleet.DefaultRequestTimeout,
		MaxIdleConnsPerHost:   4,
	}
	f.transports = append(f.transports, t)
	return &http.Client{Transport: &timingRT{f: f, base: t, worker: worker, leaseEnd: -1, idleSince: -1}}
}

func (f *fleetBench) warnf(format string, args ...any) {
	if f.warnings.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: fleet warning: "+format+"\n", args...)
	}
}

// runJob submits the job and waits for its result.
func (f *fleetBench) runJob() (*fleet.JobResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel() // only after Wait has returned
	id, err := f.client.Submit(ctx, f.spec)
	if err != nil {
		return nil, err
	}
	return f.client.Wait(ctx, id, nil)
}

func (f *fleetBench) op(traced bool, id int32) (int64, func() error) {
	sp := int32(-1)
	if traced {
		sp = f.tr.begin(f.nJob, -1, id)
		f.curSpan.Store(sp)
		f.curOp.Store(id)
	}
	res, err := f.runJob()
	f.tr.end(sp)
	return f.shards, func() error { return f.check(res, err) }
}

// check compares a job's merged counts with the local campaign.Run.
func (f *fleetBench) check(res *fleet.JobResult, err error) error {
	if err != nil {
		return err
	}
	if res.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", res.ID, res.State, res.Error)
	}
	if len(res.Campaigns) != len(f.ref) {
		return fmt.Errorf("job %s: %d campaigns, want %d", res.ID, len(res.Campaigns), len(f.ref))
	}
	var errs []error
	for i, c := range res.Campaigns {
		want := f.ref[i]
		if c.Label != want.Label || c.Trials != want.Trials || c.Counts != want.Counts || len(c.FailedShards) > 0 {
			errs = append(errs, fmt.Errorf("campaign %q: counts %v (%d trials, failed shards %v), local %q %v (%d trials)",
				c.Label, c.Counts, c.Trials, c.FailedShards, want.Label, want.Counts, want.Trials))
		}
	}
	return errorsJoin(errs)
}

func (f *fleetBench) digest() string {
	h := sha256.New()
	for _, c := range f.ref {
		fmt.Fprintf(h, "%s %d %v\n", c.Label, c.Trials, c.Counts)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (f *fleetBench) info() []string {
	return []string{fmt.Sprintf("fleet: %d campaigns x %d trials, %d shards per job, %d workers, poll %dms, journal %s",
		len(f.ref), f.p.Trials, f.shards, f.p.Workers, f.p.PollMS, filepath.Join(f.dir, "journal"))}
}

func (f *fleetBench) layers(tracedOps int) (map[string]float64, []string, error) {
	if tracedOps == 0 {
		return nil, nil, fmt.Errorf("no traced ops")
	}
	p50ms := func(name string) float64 { return median(f.tr.durations(name, 0)) * 1e3 }
	var idle float64
	for _, d := range f.tr.durations("fleet.worker_idle", 0) {
		idle += d
	}
	return map[string]float64{
		"fleet.lease_ms":          p50ms("fleet.lease"),
		"fleet.complete_ms":       p50ms("fleet.complete"),
		"fleet.renew":             float64(f.renews.Load()),
		"fleet.coord.lease_ms":    p50ms("fleet.coord.lease"),
		"fleet.coord.complete_ms": p50ms("fleet.coord.complete"),
		"fleet.shard_compute_ms":  p50ms("fleet.shard_compute"),
		"fleet.worker_idle_s":     idle / float64(tracedOps),
		"fleet.rpcs_per_shard":    float64(f.rpcs.Load()) / float64(int64(tracedOps)*f.shards),
		"fleet.retries":           float64(f.retries.Load()),
		"fleet.reissued":          float64(f.reissued.Load()),
		"fleet.duplicates":        float64(f.duplicates.Load()),
	}, nil, nil
}

// close shuts down in dependency order: every Wait has already returned
// (ops run to completion), then the workers are cancelled and awaited,
// then the coordinator is closed and its server drained.
func (f *fleetBench) close() error {
	var errs []error
	if f.cancel != nil {
		f.cancel()
		f.workers.Wait()
		close(f.workerErrs)
		for err := range f.workerErrs {
			if err != nil {
				errs = append(errs, fmt.Errorf("worker: %w", err))
			}
		}
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
		if err := <-f.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("server: %w", err))
		}
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// coordHandler times the coordinator's lease grants and completions
// server-side; other routes (including the SSE stream) pass straight
// through.
func (f *fleetBench) coordHandler(h http.Handler) http.Handler {
	if f.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name uint16
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/api/lease":
			name = f.nCoordLease
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/complete"):
			name = f.nCoordComplete
		default:
			h.ServeHTTP(w, r)
			return
		}
		if !f.tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := f.tr.now()
		h.ServeHTTP(sw, r)
		end := f.tr.now()
		if name == f.nCoordLease && sw.code != http.StatusOK {
			return // empty polls are idle time, not grants
		}
		f.tr.add(name, f.curSpan.Load(), f.curOp.Load(), start, end)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// timingRT times one fleet client's RPCs by route while the tracer is
// on. For a worker it also derives shard compute time (lease response to
// complete request) and idle time (first empty poll to the next grant).
type timingRT struct {
	f      *fleetBench
	base   http.RoundTripper
	worker bool

	mu        sync.Mutex
	leaseEnd  int64 // end of the last granted lease RPC, -1 after use
	idleSince int64 // start of the first empty poll of an idle stretch, -1 when busy
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.f
	if !f.tr.enabled() {
		return t.base.RoundTrip(req)
	}
	path := req.URL.Path
	isLease := path == "/api/lease"
	isComplete := strings.HasPrefix(path, "/api/lease/") && strings.HasSuffix(path, "/complete")
	isRenew := strings.HasPrefix(path, "/api/lease/") && strings.HasSuffix(path, "/renew")
	start := f.tr.now()
	op, parent := f.curOp.Load(), f.curSpan.Load()
	if isComplete && t.worker {
		t.mu.Lock()
		if t.leaseEnd >= 0 {
			f.tr.add(f.nCompute, parent, op, t.leaseEnd, start)
			t.leaseEnd = -1
		}
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(req)
	f.rpcs.Add(1)
	if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		f.retries.Add(1) // the client retries transport errors, 5xx and 429
		return resp, err
	}
	switch {
	case isLease && resp.StatusCode == http.StatusOK:
		body, rerr := readBody(resp)
		if rerr != nil {
			return nil, rerr
		}
		end := f.tr.now()
		var l fleet.Lease
		if json.Unmarshal(body, &l) == nil && leaseGen(l.ID) > 1 {
			f.reissued.Add(1)
		}
		f.tr.add(f.nLease, parent, op, start, end)
		t.mu.Lock()
		if t.idleSince >= 0 {
			f.tr.add(f.nIdle, parent, op, t.idleSince, start)
			t.idleSince = -1
		}
		t.leaseEnd = end
		t.mu.Unlock()
	case isLease && resp.StatusCode == http.StatusNoContent:
		t.mu.Lock()
		if t.idleSince < 0 {
			t.idleSince = start
		}
		t.mu.Unlock()
	case isComplete:
		body, rerr := readBody(resp)
		if rerr != nil {
			return nil, rerr
		}
		f.tr.add(f.nComplete, parent, op, start, f.tr.now())
		var cr fleet.CompleteResponse
		if json.Unmarshal(body, &cr) == nil && cr.Duplicate {
			f.duplicates.Add(1)
		}
	case isRenew:
		f.tr.add(f.nRenew, parent, op, start, f.tr.now())
		f.renews.Add(1)
	}
	return resp, nil
}

// readBody buffers a response body so it can be inspected and re-read.
func readBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return body, nil
}

// leaseGen is the generation suffix of a lease ID
// ("<job>.<campaign>.<shard>.<gen>"); a generation above 1 is a re-issue.
func leaseGen(id string) int {
	i := strings.LastIndexByte(id, '.')
	g, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return 0
	}
	return g
}
