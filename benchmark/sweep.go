package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mlaasbench/internal/core"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// sweepSlice is the named corpus slice the sweep workload measures: the
// first sweepDatasets datasets of the paper's corpus, all 7 platforms,
// quick profile. core.Options selects datasets only as a corpus prefix.
const sweepDatasets = 2

// sweepDigests holds the committed digest of the slice's measurements.
//
//go:embed sweep.digest
var sweepDigests string

func committedDigest(slice string) (string, bool) {
	sc := bufio.NewScanner(strings.NewReader(sweepDigests))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == slice {
			return f[1], true
		}
	}
	return "", false
}

func sliceName() string { return fmt.Sprintf("quick/first-%d/all-platforms", sweepDatasets) }

func sweepOptions(workers int) core.Options {
	opts := core.DefaultOptions()
	opts.MaxDatasets = sweepDatasets
	opts.Workers = workers
	opts.StorePredictions = true
	return opts
}

// sweepDigest hashes every measurement's platform, dataset, config,
// baseline flag, scores and packed predictions in corpus order, leaving
// out the wall-clock Micros.
func sweepDigest(sw *core.Sweep) (string, int) {
	h := sha256.New()
	n := 0
	for _, ds := range sw.Datasets {
		for _, p := range sw.Platforms() {
			for _, m := range sw.ByPlatform[p][ds.Name] {
				scores, _ := json.Marshal(m.Scores) // plain float fields: cannot fail
				fmt.Fprintf(h, "%s|%s|%s|%t|%s|%x\n", m.Platform, m.Dataset, m.Config.String(), m.Baseline, scores, m.Pred)
				n++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// runSweep measures core.RunSweep over the slice, repeated until the time
// budget is spent, and checks every repetition against the digest. The
// slice is the paper's fixed corpus, so the seed does not change it.
func runSweep(seed uint64, seconds float64, traced bool, env *runEnv, res *result) error {
	ctx := context.Background()
	nw := workers()
	want, ok := committedDigest(sliceName())
	if !ok {
		return fmt.Errorf("no committed digest for slice %s", sliceName())
	}

	// Set-up: generate the corpus the campaign draws from and run one
	// warm-up sweep of the cheapest platform on the first dataset, so lazy
	// runtime set-up is paid before timing.
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		corpus := synth.GenerateCorpus(synth.Quick, synth.CorpusSeed)
		var shape []string
		for _, d := range corpus[:sweepDatasets] {
			shape = append(shape, fmt.Sprintf("%s %dx%d", d.Name, d.N(), d.D()))
		}
		warm := sweepOptions(nw)
		warm.MaxDatasets = 1
		warm.Platforms = []string{"google"}
		if _, err := core.RunSweep(ctx, warm); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k == 0 {
			res.logf("sweep slice %s: %s", sliceName(), strings.Join(shape, ", "))
		}
	}
	res.set("setup_s", median(setups))
	res.logf("setup: median %.4fs over %d", median(setups), setupReps)

	budget := time.Duration(seconds * float64(time.Second))
	var (
		reps, total int
		wall        time.Duration
		micros      []float64
		cpu         time.Duration
		slowest     []float64
		busy        []float64
		plainRate   float64
		tracedN     int
		tracedWall  time.Duration
		kc          *kernelClock
	)
	reg := telemetry.NewRegistry()
	tr := newTracer()
	heap := startHeapSampler(time.Millisecond, time.Second)
	start := time.Now()
	minReps := 1
	if traced {
		minReps = 2
	}
	for reps < minReps || time.Since(start)+wall/time.Duration(reps) <= budget {
		// A traced run times its first repetition untraced, for the
		// tracing overhead, and traces the rest.
		tracing := traced && reps > 0
		rctx := ctx
		tr.on.Store(tracing)
		if tracing {
			rctx = telemetry.WithRegistry(ctx, reg)
			if kc == nil {
				kc = newKernelClock()
				kc.install()
			}
		}
		measureBefore := reg.Histogram(telemetry.StageHistogram, "stage", "measure").Sum()
		// Each repetition starts from a collected heap, so the previous
		// one's garbage does not shift where its GC cycles fall.
		runtime.GC()
		c0 := cpuTime()
		t0 := time.Now()
		sw, err := core.RunSweep(rctx, sweepOptions(nw))
		el := time.Since(t0)
		tr.add(int64(reps), "core.RunSweep", "", t0, t0.Add(el))
		cpu += cpuTime() - c0
		if err != nil {
			return err
		}
		got, n := sweepDigest(sw)
		if got != want {
			res.fail("sweep digest %s, committed %s", got, want)
		}
		reps++
		total += n
		wall += el
		units := map[string]float64{}
		for _, byDS := range sw.ByPlatform {
			for _, ms := range byDS {
				for _, m := range ms {
					micros = append(micros, float64(m.Micros)/1000)
					units[m.Platform+"/"+m.Dataset] += float64(m.Micros) / 1e6
				}
			}
		}
		top := 0.0
		for _, s := range units {
			if s > top {
				top = s
			}
		}
		slowest = append(slowest, top)
		if tracing {
			m := reg.Histogram(telemetry.StageHistogram, "stage", "measure").Sum() - measureBefore
			busy = append(busy, m/(el.Seconds()*float64(nw)))
			tracedN += n
			tracedWall += el
		} else if traced {
			plainRate = float64(n) / el.Seconds()
		}
		res.logf("rep %d: %d measurements in %.2fs (%.1f/s), digest %s", reps, n, el.Seconds(), float64(n)/el.Seconds(), got[:16])
	}
	kc.uninstall()
	res.set("peak_heap_mb", median(heap.Stop()))
	res.Attempted = total
	res.set("throughput_per_s", float64(total)/wall.Seconds())
	res.set("latency_p50_ms", quantile(micros, 0.5))
	res.set("cpu_ms_per_op", ms(cpu)/float64(total))
	res.logf("sweep: %d reps, %d measurements, %.1f measurements/s, per-measurement p50 %.3f ms p99 %.3f ms over %d samples",
		reps, total, float64(total)/wall.Seconds(), quantile(micros, 0.5), quantile(micros, 0.99), len(micros))

	if traced {
		if reps < 2 {
			return fmt.Errorf("a traced sweep needs two repetitions; raise --seconds")
		}
		tracedRate := float64(tracedN) / tracedWall.Seconds()
		res.set("ledger.tracing_overhead_pct", 100*(plainRate/tracedRate-1))
		sweepLayers(reg, kc, reps-1, slowest[1:], busy, res)
		if err := writeSpans(env.tracePath("sweep", seed), tr.take()); err != nil {
			return err
		}
	}
	return nil
}

// sweepLayers fills the per-layer metrics from the traced repetitions'
// registry: pipeline stage totals, FEAT cache, kernels, and the sweep's
// own measure spans, each per repetition.
func sweepLayers(reg *telemetry.Registry, kc *kernelClock, reps int, slowest, busy []float64, res *result) {
	regs := []*telemetry.Registry{reg}
	per := func(v float64) float64 { return v / float64(reps) }
	measure := stageSeconds(regs, "measure")
	staged := 0.0
	largest, largestS := "", -1.0
	for _, st := range stageNames {
		v := stageSeconds(regs, st)
		staged += v
		res.set("pipeline."+st+"_s", per(v))
		if v > largestS {
			largest, largestS = st, v
		}
	}
	hits := counterSum(regs, telemetry.FeatCacheHits)
	res.set("pipeline.featcache_hit_ratio", ratio(hits, hits+counterSum(regs, telemetry.FeatCacheMisses)))
	res.set("linalg.gemm_nt_s", per(kc.seconds("gemm_nt")))
	res.set("linalg.distance_s", per(kc.seconds("distance")))
	res.set("core.worker_busy_ratio", mean(busy))
	res.set("core.slowest_unit_s", mean(slowest))
	res.set("synth.corpus_gen_s", per(stageSeconds(regs, "corpus_gen")))
	unexplained := 100 * (measure - staged) / measure
	res.set("ledger.unexplained_pct", unexplained)
	res.logf("ledger sweep (per repetition): measure %.2fs = fit %.2fs + predict %.2fs + featsel %.2fs + preprocess %.2fs + score %.2fs + unexplained %.2f%%",
		per(measure), per(stageSeconds(regs, "fit")), per(stageSeconds(regs, "predict")), per(stageSeconds(regs, "featsel")),
		per(stageSeconds(regs, "preprocess")), per(stageSeconds(regs, "score")), unexplained)
	res.logf("largest layer on sweep: pipeline.%s (%.0f%% of measure time)", largest, 100*largestS/measure)
	// The sweep calls no serving layer.
	res.zeroLayers("harness.", "slo.", "client.", "transport.", "cluster.", "service.", "store.", "wire.", "classifiers.", "ops.")
}
