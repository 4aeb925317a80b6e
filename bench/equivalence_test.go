package bench

import (
	"errors"
	"reflect"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/experiments"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// benchCell serves one bench cell in-process and returns its summary and
// trace. The trace and cluster seeds are separate because the experiments
// scale sweep derives its trace seed from the cluster seed.
func benchCell(t *testing.T, p params, traceSeed, clusterSeed int64, system string) (runner.Summary, *workload.Trace) {
	t.Helper()
	gen, err := p.trace(traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCell(system, system, p.clusterConfig(clusterSeed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := newPass(p.Name, false).runCell(c, tr, tr.Duration().Add(sim.DurationFromSeconds(p.DrainS)), 0)
	if err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	s.Key = ""
	return s, tr
}

func mustWorkload(t *testing.T, name string) params {
	t.Helper()
	p, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// errSpy stops cluster.New once the spy has seen the built cluster.
var errSpy = errors.New("spy")

// kvSpy records the KV region experiments (or the bench) provisioned.
type kvSpy struct {
	cluster.Policy
	kvBytes int64
}

func (s *kvSpy) Setup(c *cluster.Cluster) error {
	s.kvBytes = c.Instances[0].KVBytes()
	return errSpy
}

// TestPinsMatchExperiments checks the pinned rates and KV provisioning
// against what experiments derives for the same fleet: a burst trace built
// at the pinned rate equals experiments' own trace, and the KV region a
// cluster gets matches.
func TestPinsMatchExperiments(t *testing.T) {
	const d = 16 * sim.Second
	for _, p := range workloads {
		cfg := experiments.Config{Instances: p.Instances, Duration: d}
		want, err := cfg.BuildTrace()
		if err != nil {
			t.Fatal(err)
		}
		got := workload.Generate(defaultSeed, d, workload.ScaledBurstSchedule(p.RPS, d), workload.BurstGPTDataset())
		if !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Errorf("%s: pinned rps %v does not reproduce experiments' rate for %d instances",
				p.Name, p.RPS, p.Instances)
		}
		if p.Name == prefixAgentic {
			// Provisioned from the compiled spec trace; pinned at the
			// default seed and checked by TestPrefixAgenticMatchesExperimentPrefix.
			continue
		}
		exp := &kvSpy{Policy: experiments.NewPolicy(experiments.SysVLLMDP)}
		if _, err := cfg.RunPolicy(exp, want); !errors.Is(err, errSpy) {
			t.Fatalf("%s: experiments spy: %v", p.Name, err)
		}
		cc := p.clusterConfig(defaultSeed)
		ours := &kvSpy{Policy: experiments.NewPolicy(experiments.SysVLLMDP)}
		cc.Policy = ours
		if _, err := cluster.New(cc); !errors.Is(err, errSpy) {
			t.Fatalf("%s: bench spy: %v", p.Name, err)
		}
		if ours.kvBytes != exp.kvBytes {
			t.Errorf("%s: pinned KV provisions %d bytes per instance, experiments %d",
				p.Name, ours.kvBytes, exp.kvBytes)
		}
	}
}

// TestPaperBurstMatchesExperiments: a paper-burst cell is experiments.Full()
// served by Config.Run on the same seed and trace.
func TestPaperBurstMatchesExperiments(t *testing.T) {
	p := mustWorkload(t, paperBurst)
	seed := runner.DeriveSeed(defaultSeed, paperBurst+"/0")
	cfg := experiments.Full()
	cfg.Seed = seed
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"kunserve", "vllm-dp"} {
		got, gotTr := benchCell(t, p, seed, seed, sys)
		if !reflect.DeepEqual(gotTr.Requests, tr.Requests) {
			t.Fatalf("paper-burst trace differs from experiments.Full().BuildTrace()")
		}
		cl, err := cfg.Run(systems[sys], tr)
		if err != nil {
			t.Fatal(err)
		}
		want := runner.Summarize(cl)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bench summary differs from experiments.Config.Run", sys)
		}
	}
}

// TestFleetDiurnalMatchesScale: a small fleet-diurnal cell (8 instances,
// 32 s) equals the matching experiments.ExperimentScale cell. At 8
// instances experiments derives Cluster A's rate and provisioning, which
// paper-burst pins.
func TestFleetDiurnalMatchesScale(t *testing.T) {
	pb := mustWorkload(t, paperBurst)
	p := mustWorkload(t, fleetDiurnal)
	p.Instances, p.DurationS = 8, 32
	p.RPS, p.KVProvisionBytes = pb.RPS, pb.KVProvisionBytes
	res, err := experiments.ExperimentScale(experiments.Config{
		Instances: 8, Duration: 32 * sim.Second, Seed: defaultSeed, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rung := res.Rungs[len(res.Rungs)-1]
	if rung.Instances != 8 {
		t.Fatalf("top rung has %d instances", rung.Instances)
	}
	for i, sys := range []string{"vllm-dp", "kunserve"} {
		s, tr := benchCell(t, p, runner.DeriveSeed(defaultSeed, "scale/8"), defaultSeed, sys)
		if len(tr.Requests) != rung.Requests {
			t.Fatalf("trace has %d requests, scale rung %d", len(tr.Requests), rung.Requests)
		}
		got := experiments.ScaleCell{
			System: string(systems[sys]), Finished: s.Finished, Unserved: s.Unserved,
			TTFTP50: s.TTFTP50, TTFTP99: s.TTFTP99, TPOTP99: s.TPOTP99,
			Throughput: s.Throughput, Drops: s.Drops, Restores: s.Restores,
		}
		if want := rung.Systems[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bench %+v, scale %+v", sys, got, want)
		}
	}
}

// TestPrefixAgenticMatchesExperimentPrefix: a prefix-agentic KunServe cell
// at the default seed equals ExperimentPrefix's share=0.5/lru row.
func TestPrefixAgenticMatchesExperimentPrefix(t *testing.T) {
	p := mustWorkload(t, prefixAgentic)
	res, err := experiments.ExperimentPrefix(experiments.Full())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Row(0.5, "lru")
	if want == nil {
		t.Fatal("no share=0.5/lru row")
	}
	s, _ := benchCell(t, p, defaultSeed, defaultSeed, "kunserve")
	mean := 0.0
	for _, v := range s.TTFTs {
		mean += v
	}
	mean /= float64(len(s.TTFTs))
	pc := s.PrefixCache
	got := experiments.PrefixRow{
		ShareRatio: 0.5, Policy: "lru",
		Finished: s.Finished, MeanTTFT: mean, TTFTP50: s.TTFTP50, TTFTP99: s.TTFTP99, TPOTP50: s.TPOTP50,
		HitRate: pc.HitRate, PrefillTokensSaved: pc.PrefillTokensSaved, CoWCopies: pc.CoWCopies,
		Evictions: pc.Evictions, ShrinkEvictions: pc.ShrinkEvictions, ReconfigEvicted: pc.ReconfigEvicted,
		PeakCachedBlocks: pc.PeakCachedBlocks, Drops: s.Drops, Restores: s.Restores,
	}
	if !reflect.DeepEqual(got, *want) {
		t.Errorf("bench %+v\nprefix row %+v", got, *want)
	}
}
