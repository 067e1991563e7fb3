package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyParams shrinks a workload's spec.json parameters so one op takes a
// few milliseconds.
func tinyParams(t *testing.T, raw json.RawMessage, overrides map[string]any) json.RawMessage {
	t.Helper()
	var p map[string]any
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	for k, v := range overrides {
		if _, ok := p[k]; !ok {
			t.Fatalf("tiny override %q is not a parameter", k)
		}
		p[k] = v
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var tiny = map[string]map[string]any{
	"ber-sweep":      {"trials_per_k": 16, "max_k": 3},
	"traffic-read":   {"requests": 1500},
	"fleet-campaign": {"trials": 40, "shard_size": 20, "scenarios": []string{"pin", "lane"}},
}

// runTiny runs one workload at the tiny size and returns the decoded
// result line plus the reference digest line.
func runTiny(t *testing.T, spec *benchSpec, workload string, seed int64, traced bool) (map[string]any, string) {
	t.Helper()
	res, err := run(runConfig{
		workload:  workload,
		seed:      seed,
		seconds:   0.05,
		trace:     traced,
		setups:    2,
		stateDir:  t.TempDir(),
		params:    tinyParams(t, spec.Workloads[workload].Params, tiny[workload]),
		checkSeed: spec.DefaultSeed,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, traced, err)
	}
	var buf bytes.Buffer
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	digest := ""
	for _, l := range lines {
		if strings.Contains(l, "reference digest") {
			digest = l
		}
	}
	return out, digest
}

// TestSmokeEveryMetric runs every workload of BENCHMARK.json untraced and
// traced at two seeds, and checks that each run emits exactly the named
// metrics with their units, that its checks pass, and that the seed
// changes the inputs but not the metric names.
func TestSmokeEveryMetric(t *testing.T) {
	bench := readBenchmarkFile(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("workload lists differ: BENCHMARK.json %d, spec.json %d, program %d",
			len(bench.Workloads), len(spec.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var digests []string
			for _, seed := range []int64{spec.DefaultSeed + 6, spec.DefaultSeed + 7} {
				out, digest := runTiny(t, spec, w.Name, seed, traced)
				digests = append(digests, digest)
				if out["correct"] != true || out["failed"] != float64(0) || !(out["attempted"].(float64) >= 1) {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%v failed=%v",
						w.Name, seed, traced, out["correct"], out["attempted"], out["failed"])
				}
				metrics := out["metrics"].(map[string]any)
				if len(metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(metrics), len(want))
				}
				for _, m := range want {
					got, ok := metrics[m.Name].(map[string]any)
					if !ok {
						t.Errorf("%s trace %v: metric %s missing", w.Name, traced, m.Name)
						continue
					}
					if got["unit"] != m.Unit {
						t.Errorf("%s trace %v: metric %s unit %v, BENCHMARK.json %q", w.Name, traced, m.Name, got["unit"], m.Unit)
					}
					if _, ok := got["value"].(float64); !ok {
						t.Errorf("%s trace %v: metric %s value %v", w.Name, traced, m.Name, got["value"])
					}
				}
			}
			if digests[0] == "" || digests[0] == digests[1] {
				t.Errorf("%s trace %v: seeds did not change the inputs: %q vs %q", w.Name, traced, digests[0], digests[1])
			}
		}
	}
}

// TestSpecLayerMap checks spec.json's layer -> end-to-end map against
// BENCHMARK.json: every per-layer metric is mapped or listed as a count,
// and every target is an end-to-end metric.
func TestSpecLayerMap(t *testing.T) {
	bench := readBenchmarkFile(t)
	var spec struct {
		CommonLayers map[string][]string `json:"common_layers"`
		Workloads    map[string]struct {
			Layers map[string][]string `json:"layers"`
			Counts []string            `json:"counts"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	seen := map[string]bool{}
	check := func(layers map[string][]string) {
		for name, targets := range layers {
			seen[name] = true
			for _, target := range targets {
				if !e2e[target] {
					t.Errorf("layer %s maps to %q, not an end-to-end metric", name, target)
				}
			}
		}
	}
	check(spec.CommonLayers)
	for _, w := range spec.Workloads {
		check(w.Layers)
		for _, c := range w.Counts {
			seen[c] = true
		}
	}
	for _, m := range bench.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is neither mapped nor a count in spec.json", m.Name)
		}
		delete(seen, m.Name)
	}
	for name := range seen {
		t.Errorf("spec.json names %s, which BENCHMARK.json does not list", name)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ber-sweep", "--trace", "2"},
		{"--workload", "ber-sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		code, err := mainErr(args, &out)
		if code == 0 || err == nil || out.Len() != 0 {
			t.Errorf("%v: code %d, err %v, output %q", args, code, err, out.String())
		}
	}
}
