package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"

	"pair/internal/dram"
	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/schemes"
	"pair/internal/trace"
)

// trafficParams describe one open-loop request stream and the memory
// system it runs on. The op simulates the whole stream.
type trafficParams struct {
	Profile     string  `json:"profile"`
	Scheme      string  `json:"scheme"`
	Requests    int     `json:"requests"`
	Arrival     string  `json:"arrival"`
	Load        float64 `json:"load"`
	Users       int     `json:"users"`
	ReadFrac    float64 `json:"read_frac"`
	MaskedFrac  float64 `json:"masked_frac"`
	Lines       uint64  `json:"lines"`
	HotFraction float64 `json:"hot_fraction"`
}

type traffic struct {
	p    trafficParams
	tr   *tracer
	prof *memsim.Profile
	cfg  memsim.Config
	wl   trace.Workload
	ref  memsim.Result
	fp   string // fingerprint of ref

	nOp, nRun, nMap uint16
	// per traced op, from runtime/metrics around memsim.Run
	allocBytes, gcCPU []float64
}

// runtime/metrics samples read around each traced op.
const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

func openTraffic(cfg runConfig, tr *tracer) (instance, error) {
	t := &traffic{tr: tr}
	if err := json.Unmarshal(cfg.params, &t.p); err != nil {
		return nil, fmt.Errorf("traffic params: %w", err)
	}
	if t.p.Requests < 1 || t.p.Lines == 0 {
		return nil, fmt.Errorf("traffic params: requests and lines must be positive: %+v", t.p)
	}
	arrival, err := trace.ParseArrival(t.p.Arrival)
	if err != nil {
		return nil, err
	}
	if t.prof, err = memsim.NewProfile(t.p.Profile); err != nil {
		return nil, err
	}
	scheme, err := schemes.New(t.p.Scheme)
	if err != nil {
		return nil, err
	}
	t.cfg = t.prof.Config()
	t.cfg.Cost = scheme.Cost()
	t.cfg.Seed = cfg.seed
	t.nOp = tr.name("traffic.op")
	t.nRun = tr.name("memsim.run")
	t.nMap = tr.name("dram.map")

	gen := tr.begin(tr.name("trace.generate"), -1, -1)
	t.wl = trace.Traffic(trace.TrafficParams{
		Name: cfg.workload, Requests: t.p.Requests, Arrival: arrival, Load: t.p.Load,
		Users: t.p.Users, ReadFrac: t.p.ReadFrac, MaskedFrac: t.p.MaskedFrac,
		Lines: t.p.Lines, HotFraction: t.p.HotFraction, Seed: cfg.seed,
	})
	tr.end(gen)

	// Warm-up op: the reference result every later op must reproduce.
	if t.ref, err = memsim.Run(t.cfg, t.wl); err != nil {
		return nil, err
	}
	t.fp = fingerprint(t.ref)
	return t, nil
}

// fingerprint renders every modelled statistic of a result, including the
// read-latency distribution.
func fingerprint(r memsim.Result) string {
	h := r.ReadLatency
	r.ReadLatency = nil
	s := fmt.Sprintf("%+v", r)
	if h != nil {
		s += fmt.Sprintf(" lat{n=%d mean=%v p50=%v p90=%v p99=%v p999=%v max=%v}",
			h.Count(), h.Mean(), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9), h.Max())
	}
	return s
}

func (t *traffic) op(traced bool, id int32) (int64, func() error) {
	units := int64(len(t.wl.Reqs))
	if !traced {
		res, err := memsim.Run(t.cfg, t.wl)
		return units, func() error { return t.check(res, err) }
	}
	tr := t.tr
	opSpan := tr.begin(t.nOp, -1, id)
	before := readMetrics()
	runSpan := tr.begin(t.nRun, opSpan, id)
	res, err := memsim.Run(t.cfg, t.wl)
	tr.end(runSpan)
	after := readMetrics()
	tr.end(opSpan)
	t.allocBytes = append(t.allocBytes, float64(after[0].Value.Uint64()-before[0].Value.Uint64()))
	t.gcCPU = append(t.gcCPU, after[1].Value.Float64()-before[1].Value.Float64())
	return units, func() error { return t.check(res, err) }
}

func readMetrics() []metrics.Sample {
	s := []metrics.Sample{{Name: metricAllocBytes}, {Name: metricGCCPU}}
	metrics.Read(s)
	return s
}

func (t *traffic) check(res memsim.Result, err error) error {
	if err != nil {
		return err
	}
	if fp := fingerprint(res); fp != t.fp {
		return fmt.Errorf("result differs from the reference:\n got %s\nwant %s", fp, t.fp)
	}
	return nil
}

func (t *traffic) digest() string {
	sum := sha256.Sum256([]byte(t.fp))
	return hex.EncodeToString(sum[:])
}

func (t *traffic) simP99() float64  { return t.ref.P99ReadLatencyNS(t.cfg.Timing) }
func (t *traffic) simMean() float64 { return t.ref.AvgReadLatencyNS(t.cfg.Timing) }

func (t *traffic) cmds() uint64 {
	c := t.ref.Cmds
	return c.ACT + c.PRE + c.RD + c.WR + c.REF
}

func (t *traffic) info() []string {
	return []string{
		fmt.Sprintf("profile=%s scheme=%s requests=%d offered_load=%.4f req/cycle", t.prof.Spec(), t.p.Scheme, len(t.wl.Reqs), t.wl.OfferedLoad()),
		fmt.Sprintf("sim_read_p99_ns=%v sim_read_mean_ns=%v (modelled; timing model unvalidated against hardware)", t.simP99(), t.simMean()),
		fmt.Sprintf("memsim cmds=%d %+v row_hit_rate=%.4f bus_util=%.4f refreshes=%d", t.cmds(), t.ref.Cmds, t.ref.RowHitRate(), t.ref.BusUtilization(), t.ref.Refreshes),
	}
}

// mapPasses is how many times layers times AddressMapper.Map over the
// trace's lines; the median pass is reported.
const mapPasses = 5

// mapSink keeps the dram.map timing loop's results live.
var mapSink int

func (t *traffic) layers(tracedOps int) (map[string]float64, []string, error) {
	if tracedOps == 0 {
		return nil, nil, fmt.Errorf("no traced ops")
	}
	var failures []string
	// Protocol check: the same stream with the JEDEC checker attached
	// must reproduce the reference with zero violations.
	chk := check.ForProfile(t.prof)
	cfg := t.cfg
	cfg.Observer = chk
	res, err := memsim.Run(cfg, t.wl)
	if err := t.check(res, err); err != nil {
		failures = append(failures, fmt.Sprintf("protocol-check run: %v", err))
	}
	if chk.Total() != 0 {
		failures = append(failures, fmt.Sprintf("protocol check: %d violations: %v", chk.Total(), chk.Err()))
	}

	// dram.map: one AddressMapper.Map per trace line, the line
	// interleaved across buses the way the simulator locates it.
	mapper, err := dram.NewAddressMapper(t.prof.Org, max(t.cfg.Ranks, 1))
	if err != nil {
		return nil, nil, err
	}
	buses := uint64(t.prof.Buses())
	capacity := mapper.Capacity() * buses
	for range mapPasses {
		sp := t.tr.begin(t.nMap, -1, int32(tracedOps))
		for _, r := range t.wl.Reqs {
			mapSink += mapper.Map(r.Line % capacity / buses).Row
		}
		t.tr.end(sp)
	}
	reqs := float64(len(t.wl.Reqs))
	var mapNS []float64
	for _, d := range t.tr.durations("dram.map", 0) {
		mapNS = append(mapNS, d*1e9/reqs)
	}

	var runSum, allocSum, gcSum float64
	runs := t.tr.durations("memsim.run", 0)
	for _, d := range runs {
		runSum += d
	}
	for i := range t.allocBytes {
		allocSum += t.allocBytes[i]
		gcSum += t.gcCPU[i]
	}
	runS := runSum / float64(len(runs))
	c := t.ref.Cmds
	return map[string]float64{
		"memsim.run_s":                runS,
		"memsim.host_ns_per_cmd":      runS * 1e9 / float64(t.cmds()),
		"dram.map_ns":                 median(mapNS),
		"runtime.alloc_bytes_per_req": allocSum / float64(len(t.allocBytes)) / reqs,
		"runtime.gc_cpu_s":            gcSum / float64(len(t.gcCPU)),
		"memsim.cmds":                 float64(t.cmds()),
		"memsim.ops_per_req":          float64(c.RD+c.WR) / reqs,
		"memsim.row_hit_rate":         t.ref.RowHitRate(),
		"memsim.bus_util":             t.ref.BusUtilization(),
		"memsim.refreshes":            float64(t.ref.Refreshes),
		"sim_read_p99_ns":             t.simP99(),
		"sim_read_mean_ns":            t.simMean(),
	}, failures, nil
}

func (t *traffic) close() error { return nil }
