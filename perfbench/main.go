// Command perfbench is the end-to-end benchmark of the PAIR
// reproduction. It drives the repository's three kinds of work from
// outside the program — Monte-Carlo reliability trials, simulated DRAM
// request streams and fleet campaign shards — through the public entry
// points of internal/reliability, internal/memsim + internal/trace and
// internal/fleet, as a closed loop of back-to-back ops.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// spends the first half of the run untraced and the second half traced,
// and prints the per-layer metrics plus the tracing overhead. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workload parameters, the layer-to-end-to-end map and the reference
// digests live in spec.json beside this file.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is taken when the main package initializes, after every
// imported package (and so every registry) has; the first set-up is
// timed from here.
var processStart = time.Now()

//go:embed spec.json
var specJSON []byte

// benchSpec is the part of spec.json the program runs from; the rest
// documents the workloads.
type benchSpec struct {
	DefaultSeed  int64                   `json:"default_seed"`
	SetupsPerRun int                     `json:"setups_per_run"`
	GOMAXPROCS   int                     `json:"gomaxprocs"`
	Workloads    map[string]workloadSpec `json:"workloads"`
}

// workloadSpec is one workload's entry in spec.json: its parameters,
// the digest of its reference output at the default seed and, if set, a
// GOMAXPROCS that replaces the spec-wide one.
type workloadSpec struct {
	Params     json.RawMessage `json:"params"`
	Digest     string          `json:"digest"`
	GOMAXPROCS int             `json:"gomaxprocs"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("decoding spec.json: %w", err)
	}
	return &s, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_cpu_s", "1/s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, in output order. Every
// workload reports all of them; a layer its traced calls do not reach
// reads 0.
var perLayer = []metricDef{
	{"trace.overhead_work_per_cpu_s", "1/s"},
	// ber-sweep
	{"ecc.encode_s", "s"},
	{"faults.inject_s", "s"},
	{"ecc.decode_s", "s"},
	{"ecc.classify_s", "s"},
	{"campaign.overhead_s", "s"},
	{"reliability.trials", "count"},
	{"ecc.claim.clean", "count"},
	{"ecc.claim.corrected", "count"},
	{"ecc.claim.detected", "count"},
	{"reliability.outcome.ok", "count"},
	{"reliability.outcome.ce", "count"},
	{"reliability.outcome.due", "count"},
	{"reliability.outcome.sdc", "count"},
	// traffic-read
	{"memsim.run_s", "s"},
	{"memsim.host_ns_per_cmd", "ns"},
	{"dram.map_ns", "ns"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.generate_s", "s"},
	{"memsim.cmds", "count"},
	{"memsim.ops_per_req", "ratio"},
	{"memsim.row_hit_rate", "ratio"},
	{"memsim.bus_util", "ratio"},
	{"memsim.refreshes", "count"},
	{"sim_read_p99_ns", "ns"},
	{"sim_read_mean_ns", "ns"},
	// fleet-campaign
	{"fleet.lease_ms", "ms"},
	{"fleet.complete_ms", "ms"},
	{"fleet.renew", "count"},
	{"fleet.coord.lease_ms", "ms"},
	{"fleet.coord.complete_ms", "ms"},
	{"fleet.shard_compute_ms", "ms"},
	{"fleet.worker_idle_s", "s"},
	{"fleet.rpcs_per_shard", "ratio"},
	{"fleet.retries", "count"},
	{"fleet.reissued", "count"},
	{"fleet.duplicates", "count"},
}

// instance is one set-up workload: inputs generated, services started,
// reference output computed by a warm-up op.
type instance interface {
	// op runs one timed op and returns its units of work plus the check
	// of its output, which the runner calls outside the op's timing. A
	// traced op records spans on the instance's tracer.
	op(traced bool, id int32) (units int64, check func() error)
	// digest fingerprints the reference output (hex SHA-256).
	digest() string
	// info returns human-readable lines about the reference output.
	info() []string
	// layers derives the per-layer metrics after the traced phase; it
	// may run extra traced calls and returns the failures of its checks.
	layers(tracedOps int) (map[string]float64, []string, error)
	// close stops everything the instance started and waits for it.
	close() error
}

// opener builds an instance. tr is nil in untraced runs.
type opener func(cfg runConfig, tr *tracer) (instance, error)

var workloads = map[string]opener{
	"ber-sweep":      openBerSweep,
	"traffic-read":   openTraffic,
	"fleet-campaign": openFleet,
}

// runConfig is everything one run needs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	// stateDir holds the run's files (spans, fleet journal and
	// checkpoints); relative paths resolve against the working directory.
	stateDir string
	params   json.RawMessage
	// digest is the recorded reference digest checked at checkSeed;
	// empty disables the check.
	digest    string
	checkSeed int64
}

// opSample is one timed op.
type opSample struct {
	wall, cpu float64 // seconds
	units     int64
	failed    bool
}

// result is what a run prints.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	lines     []string
}

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	spec, err := loadSpec()
	if err != nil {
		return 1, err
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", spec.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	ws, ok := spec.Workloads[*workload]
	if _, known := workloads[*workload]; !ok || !known {
		return 2, fmt.Errorf("unknown workload %q (valid: %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if !(*seconds > 0) {
		return 2, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	procs := spec.GOMAXPROCS
	if ws.GOMAXPROCS > 0 {
		procs = ws.GOMAXPROCS
	}
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))
	res, err := run(runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traceFlag == 1,
		setups:    spec.SetupsPerRun,
		stateDir:  ".bench_build",
		params:    ws.Params,
		digest:    ws.Digest,
		checkSeed: spec.DefaultSeed,
	})
	if err != nil {
		return 1, err
	}
	if err := printResult(stdout, res); err != nil {
		return 1, err
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run measures one workload. An end-to-end run splits cfg.seconds into
// cfg.setups segments and sets the workload up afresh for each, so the
// set-up times it reports the median of are sampled across the whole
// run. A traced run sets up cfg.setups times, then measures the last
// set-up half untraced and half traced.
func run(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	res.lines = append(res.lines, fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0)))
	var err error
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		err = runTimed(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	return res, nil
}

// setup opens one instance and times it; the first set-up of a run is
// timed from process start.
func setup(cfg runConfig, tr *tracer, first bool) (instance, float64, error) {
	start := time.Now()
	if first {
		start = processStart
	}
	inst, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return inst, time.Since(start).Seconds(), nil
}

// checkReference compares an instance's reference output with the
// recorded digest (at the default seed only) and describes it on the
// first call.
func checkReference(cfg runConfig, inst instance, res *result, first bool) bool {
	dg := inst.digest()
	ok := cfg.digest == "" || cfg.seed != cfg.checkSeed || cfg.digest == dg
	if first || !ok {
		switch {
		case !ok:
			res.lines = append(res.lines, fmt.Sprintf("reference digest %s DIFFERS from the recorded %s: every op fails", dg, cfg.digest))
		case cfg.digest == dg && cfg.seed == cfg.checkSeed:
			res.lines = append(res.lines, fmt.Sprintf("reference digest %s matches the recorded digest", dg))
		default:
			res.lines = append(res.lines, fmt.Sprintf("reference digest %s (no recorded digest for this seed)", dg))
		}
	}
	if first {
		res.lines = append(res.lines, inst.info()...)
	}
	return ok
}

func runTimed(cfg runConfig, res *result) error {
	segments := max(cfg.setups, 1)
	var setupTimes []float64
	var ops []opSample
	for seg := range segments {
		inst, d, err := setup(cfg, nil, seg == 0)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, d)
		refOK := checkReference(cfg, inst, res, seg == 0)
		ops = append(ops, loop(inst, false, cfg.seconds/float64(segments), int32(len(ops)), refOK, res)...)
		if err := inst.close(); err != nil {
			return fmt.Errorf("%s teardown: %w", cfg.workload, err)
		}
	}
	res.lines = append(res.lines, fmt.Sprintf("setup_s per set-up: %s", fmtFloats(setupTimes)))
	e2e := summarize(ops, res)
	e2e["setup_s"] = median(setupTimes)
	e2e["max_rss_mb"] = maxRSSMB()
	for _, m := range endToEnd {
		res.metrics[m.name] = e2e[m.name]
	}
	return nil
}

func runTraced(cfg runConfig, res *result) error {
	tr := newTracer()
	var inst instance
	for i := range max(cfg.setups, 1) {
		in, _, err := setup(cfg, tr, i == 0)
		if err != nil {
			return err
		}
		if i < cfg.setups-1 {
			if err := in.close(); err != nil {
				return fmt.Errorf("%s teardown: %w", cfg.workload, err)
			}
			continue
		}
		inst = in
	}
	err := measureTraced(cfg, inst, tr, res)
	if cerr := inst.close(); cerr != nil && err == nil {
		err = fmt.Errorf("%s teardown: %w", cfg.workload, cerr)
	}
	return err
}

// measureTraced runs the untraced then the traced half of a traced run
// on one instance and derives the per-layer metrics.
func measureTraced(cfg runConfig, inst instance, tr *tracer, res *result) error {
	refOK := checkReference(cfg, inst, res, true)
	plain := summarize(loop(inst, false, cfg.seconds/2, 0, refOK, res), res)
	tr.setOn(true)
	tracedOps := loop(inst, true, cfg.seconds/2, int32(res.attempted), refOK, res)
	tr.setOn(false)
	traced := summarize(tracedOps, res)
	lm, failures, err := inst.layers(len(tracedOps))
	if err != nil {
		return fmt.Errorf("%s per-layer metrics: %w", cfg.workload, err)
	}
	res.attempted++
	if len(failures) > 0 || !refOK {
		res.failed++
	}
	for _, f := range failures {
		res.lines = append(res.lines, "per-layer check failed: "+f)
	}
	lm["trace.overhead_work_per_cpu_s"] = traced["work_per_cpu_s"] - plain["work_per_cpu_s"]
	res.lines = append(res.lines, fmt.Sprintf("work_per_cpu_s untraced %.6g traced %.6g",
		plain["work_per_cpu_s"], traced["work_per_cpu_s"]))
	if gen := tr.durations("trace.generate", -1); len(gen) > 0 {
		lm["trace.generate_s"] = median(gen)
	}
	for _, m := range perLayer {
		res.metrics[m.name] = lm[m.name]
	}
	path := filepath.Join(cfg.stateDir, "spans", cfg.workload+".tsv.gz")
	n, err := tr.writeTSV(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.lines = append(res.lines, fmt.Sprintf("%d spans written to %s", n, path))
	return nil
}

// loop runs back-to-back ops until seconds have passed (at least one).
func loop(inst instance, traced bool, seconds float64, firstID int32, refOK bool, res *result) []opSample {
	var ops []opSample
	start := time.Now()
	for id := firstID; ; id++ {
		c0 := cpuSeconds()
		t0 := time.Now()
		units, check := inst.op(traced, id)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		s := opSample{wall: wall, cpu: cpu, units: units}
		if err := check(); err != nil || !refOK {
			s.failed = true
			if err != nil && res.failed < 5 {
				res.lines = append(res.lines, fmt.Sprintf("op %d failed: %v", id, err))
			}
		}
		res.attempted++
		if s.failed {
			res.failed++
		}
		ops = append(ops, s)
		if time.Since(start).Seconds() >= seconds {
			return ops
		}
	}
}

// tailLadder are the percentiles op_tail_ms may report.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// summarize derives the throughput and op-latency metrics of a loop.
func summarize(ops []opSample, res *result) map[string]float64 {
	var units int64
	var wall, cpu float64
	walls := make([]float64, 0, len(ops))
	failed := 0
	for _, o := range ops {
		units += o.units
		wall += o.wall
		cpu += o.cpu
		walls = append(walls, o.wall*1e3)
		if o.failed {
			failed++
		}
	}
	sort.Float64s(walls)
	p := tailPercentile(len(walls))
	res.lines = append(res.lines, fmt.Sprintf("ops=%d op_tail_ms=p%g (%.0f ops beyond) op_fail_frac=%g cpu_s=%.4f wall_s=%.4f",
		len(ops), p, float64(len(ops))*(1-p/100), float64(failed)/float64(len(ops)), cpu, wall))
	return map[string]float64{
		"work_per_cpu_s": float64(units) / cpu,
		"work_per_s":     float64(units) / wall,
		"op_p50_ms":      quantile(walls, 50),
		"op_tail_ms":     quantile(walls, p),
	}
}

// tailPercentile is the highest ladder percentile with at least ten of n
// ops beyond it (the median when there are fewer than twenty ops).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// quantile interpolates the p-th percentile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6f", x)
	}
	return strings.Join(parts, " ")
}

// printResult writes the human-readable lines, then the JSON result as
// the last line.
func printResult(w io.Writer, res *result) error {
	for _, l := range res.lines {
		fmt.Fprintln(w, "perfbench:", l)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, m := range append(endToEnd, perLayer...) {
		v, ok := res.metrics[m.name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = metric{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// errorsJoin keeps up to the first few check errors of a comparison.
func errorsJoin(errs []error) error {
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("... and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}
