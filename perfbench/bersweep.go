package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"pair/internal/campaign"
	"pair/internal/ecc"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// berParams size the ber-sweep op: one F1 semi-analytic campaign over a
// scheme set at k = 1..MaxK flipped stored bits (k = 0 is the
// guaranteed-clean row BuildProfileCtx does not sample).
type berParams struct {
	Set             string `json:"set"`
	MaxK            int    `json:"max_k"`
	TrialsPerK      int    `json:"trials_per_k"`
	CampaignWorkers int    `json:"campaign_workers"`
}

type berSweep struct {
	p       berParams
	seed    int64
	tr      *tracer
	schemes []ecc.BatchScheme
	ref     []*reliability.ConditionalProfile
	counts  [][][4]int64 // reference outcome counts [scheme][k]

	nOp, nRun, nShard, nEncode, nInject, nDecode, nClassify uint16
	// totals over traced ops; shard functions may run concurrently
	mu       sync.Mutex
	trials   int64
	claims   [3]int64
	outcomes [4]int64
}

func openBerSweep(cfg runConfig, tr *tracer) (instance, error) {
	b := &berSweep{seed: cfg.seed, tr: tr}
	if err := json.Unmarshal(cfg.params, &b.p); err != nil {
		return nil, fmt.Errorf("ber-sweep params: %w", err)
	}
	if b.p.MaxK < 1 || b.p.TrialsPerK < 1 {
		return nil, fmt.Errorf("ber-sweep params: max_k and trials_per_k must be positive: %+v", b.p)
	}
	set, err := schemes.BuildSet(b.p.Set)
	if err != nil {
		return nil, err
	}
	for _, s := range set {
		bs, ok := s.(ecc.BatchScheme)
		if !ok {
			// The traced loop mirrors the engine's batch path only.
			return nil, fmt.Errorf("scheme %s has no batch decoder", s.Name())
		}
		b.schemes = append(b.schemes, bs)
	}
	b.nOp = tr.name("reliability.sweep")
	b.nRun = tr.name("campaign.run")
	b.nShard = tr.name("reliability.shard")
	b.nEncode = tr.name("ecc.encode")
	b.nInject = tr.name("faults.inject")
	b.nDecode = tr.name("ecc.decode")
	b.nClassify = tr.name("ecc.classify")

	// Warm-up op: the reference profiles every later op must reproduce.
	if b.ref, err = b.sweep(); err != nil {
		return nil, err
	}
	for si, prof := range b.ref {
		var row [][4]int64
		for k := 0; k <= b.p.MaxK; k++ {
			r := prof.PerK[k]
			n := float64(b.p.TrialsPerK)
			row = append(row, [4]int64{
				int64(math.Round(r.OK * n)), int64(math.Round(r.CE * n)),
				int64(math.Round(r.DUE * n)), int64(math.Round(r.SDC * n)),
			})
		}
		// Every commodity scheme corrects a single flipped stored bit.
		if c := row[1]; c[ecc.OutcomeDUE]+c[ecc.OutcomeSDC] != 0 {
			return nil, fmt.Errorf("%s fails on single-bit flips: %v", b.schemes[si].Name(), c)
		}
		b.counts = append(b.counts, row)
	}
	return b, nil
}

func (b *berSweep) sweepConfig() reliability.SweepConfig {
	return reliability.SweepConfig{MaxK: b.p.MaxK, Trials: b.p.TrialsPerK, Seed: b.seed}
}

func (b *berSweep) campaignOptions() campaign.Options {
	return campaign.Options{Workers: b.p.CampaignWorkers}
}

// sweep is the untraced op: BuildProfileCtx per scheme.
func (b *berSweep) sweep() ([]*reliability.ConditionalProfile, error) {
	out := make([]*reliability.ConditionalProfile, len(b.schemes))
	for i, s := range b.schemes {
		prof, err := reliability.BuildProfileCtx(context.Background(), s, b.sweepConfig(), b.campaignOptions())
		if err != nil {
			return nil, err
		}
		out[i] = prof
	}
	return out, nil
}

func (b *berSweep) units() int64 {
	return int64(len(b.schemes) * b.p.MaxK * b.p.TrialsPerK)
}

func (b *berSweep) op(traced bool, id int32) (int64, func() error) {
	if !traced {
		profs, err := b.sweep()
		return b.units(), func() error {
			if err != nil {
				return err
			}
			var errs []error
			for i, p := range profs {
				for k := range p.PerK {
					if p.PerK[k] != b.ref[i].PerK[k] {
						errs = append(errs, fmt.Errorf("%s k=%d: rates %+v, reference %+v", p.SchemeName, k, p.PerK[k], b.ref[i].PerK[k]))
					}
				}
			}
			return errorsJoin(errs)
		}
	}
	counts, err := b.tracedSweep(id)
	return b.units(), func() error {
		if err != nil {
			return err
		}
		var errs []error
		for si := range counts {
			for k := 1; k <= b.p.MaxK; k++ {
				if counts[si][k] != b.counts[si][k] {
					errs = append(errs, fmt.Errorf("%s k=%d: traced counts %v, BuildProfileCtx %v",
						b.schemes[si].Name(), k, counts[si][k], b.counts[si][k]))
				}
			}
		}
		return errorsJoin(errs)
	}
}

// tracedSweep reproduces BuildProfileCtx's campaigns — same labels,
// seeds, shard split and worker count, through campaign.Run — with a
// shard function that makes the engine's batch-path calls itself, in its
// RNG order, so each layer call gets a span.
func (b *berSweep) tracedSweep(id int32) ([][][4]int64, error) {
	tr := b.tr
	opSpan := tr.begin(b.nOp, -1, id)
	defer tr.end(opSpan)
	out := make([][][4]int64, len(b.schemes))
	for si, s := range b.schemes {
		out[si] = make([][4]int64, b.p.MaxK+1)
		for k := 1; k <= b.p.MaxK; k++ {
			spec := campaign.Spec{
				Label:  campaign.JoinLabel("profile", schemes.CampaignID(s), fmt.Sprintf("k=%d", k)),
				Trials: b.p.TrialsPerK,
				Seed:   b.seed,
			}
			runSpan := tr.begin(b.nRun, opSpan, id)
			counts, err := campaign.Run(context.Background(), spec, b.campaignOptions(), func(rng *rand.Rand, n int) [4]int64 {
				shardSpan := tr.begin(b.nShard, runSpan, id)
				defer tr.end(shardSpan)
				return b.tracedTrials(s, rng, n, k, shardSpan, id)
			}, reliability.MergeCounts)
			tr.end(runSpan)
			if err != nil {
				return nil, err
			}
			out[si][k] = counts
		}
	}
	return out, nil
}

// trialChunk matches the engine's batch width: one slab group per
// DecodeBatchInto call.
const trialChunk = 64

// tracedTrials is the engine's batch trial loop with a span around each
// encode, injection, batch decode and classification.
func (b *berSweep) tracedTrials(s ecc.BatchScheme, rng *rand.Rand, n, k int, parent, id int32) (counts [4]int64) {
	tr := b.tr
	width := min(trialChunk, n)
	lineBytes := s.Org().LineBytes()
	lines := make([][]byte, width)
	decoded := make([][]byte, width)
	sts := make([]*ecc.Stored, width)
	claims := make([]ecc.Claim, width)
	for i := range width {
		lines[i] = make([]byte, lineBytes)
		decoded[i] = make([]byte, lineBytes)
		sts[i] = s.NewStored()
	}
	var claimCounts [3]int64
	for done := 0; done < n; done += width {
		m := min(width, n-done)
		for i := 0; i < m; i++ {
			rng.Read(lines[i])
			t0 := tr.now()
			s.EncodeInto(sts[i], lines[i])
			t1 := tr.now()
			ecc.FlipRandomStoredBits(rng, sts[i], k)
			t2 := tr.now()
			tr.add(b.nEncode, parent, id, t0, t1)
			tr.add(b.nInject, parent, id, t1, t2)
		}
		t0 := tr.now()
		s.DecodeBatchInto(decoded[:m], sts[:m], claims[:m])
		t1 := tr.now()
		for i := 0; i < m; i++ {
			counts[ecc.Classify(lines[i], decoded[i], claims[i])]++
			claimCounts[claims[i]]++
		}
		t2 := tr.now()
		tr.add(b.nDecode, parent, id, t0, t1)
		tr.add(b.nClassify, parent, id, t1, t2)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trials += int64(n)
	for i := range claimCounts {
		b.claims[i] += claimCounts[i]
	}
	for i := range counts {
		b.outcomes[i] += counts[i]
	}
	return counts
}

func (b *berSweep) digest() string {
	h := sha256.New()
	for si, row := range b.counts {
		fmt.Fprintf(h, "%s/%s:", b.schemes[si].Name(), schemes.CampaignID(b.schemes[si]))
		for k := 1; k < len(row); k++ {
			fmt.Fprintf(h, " k%d=%v", k, row[k])
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *berSweep) info() []string {
	var out []string
	for si, row := range b.counts {
		out = append(out, fmt.Sprintf("%s counts ok/ce/due/sdc by k=1..%d: %v", b.schemes[si].Name(), b.p.MaxK, row[1:]))
	}
	return out
}

func (b *berSweep) layers(tracedOps int) (map[string]float64, []string, error) {
	if tracedOps == 0 {
		return nil, nil, fmt.Errorf("no traced ops")
	}
	n := float64(tracedOps)
	self := b.tr.selfSeconds(0)
	return map[string]float64{
		"ecc.encode_s":            self["ecc.encode"] / n,
		"faults.inject_s":         self["faults.inject"] / n,
		"ecc.decode_s":            self["ecc.decode"] / n,
		"ecc.classify_s":          self["ecc.classify"] / n,
		"campaign.overhead_s":     self["campaign.run"] / n,
		"reliability.trials":      float64(b.trials) / n,
		"ecc.claim.clean":         float64(b.claims[ecc.ClaimClean]) / n,
		"ecc.claim.corrected":     float64(b.claims[ecc.ClaimCorrected]) / n,
		"ecc.claim.detected":      float64(b.claims[ecc.ClaimDetected]) / n,
		"reliability.outcome.ok":  float64(b.outcomes[ecc.OutcomeOK]) / n,
		"reliability.outcome.ce":  float64(b.outcomes[ecc.OutcomeCE]) / n,
		"reliability.outcome.due": float64(b.outcomes[ecc.OutcomeDUE]) / n,
		"reliability.outcome.sdc": float64(b.outcomes[ecc.OutcomeSDC]) / n,
	}, nil, nil
}

func (b *berSweep) close() error { return nil }
