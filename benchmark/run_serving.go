package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// setupReps is how many times a run builds its deployment; setup_s is the
// median and the last deployment serves the timed phases.
const setupReps = 7

// Phase lengths. --seconds is spent in cycles of two windows; the SLO
// ladder runs after them within its own budget.
const (
	cycleWindow  = 1250 * time.Millisecond
	rungDur      = 500 * time.Millisecond
	ladderBudget = 6 * time.Second
	// The null ceiling is the median of nullWindows closed-loop windows,
	// after one window to warm the connections up.
	nullDur     = 400 * time.Millisecond
	nullWindows = 3
	// closedIDs reserves request ids for one closed-loop window.
	closedIDs = 1 << 22
)

// runServing runs one serving workload and fills res.
func runServing(wl servingWorkload, seed uint64, seconds float64, traced bool, env *runEnv, res *result) error {
	ctx := context.Background()
	budget := time.Duration(seconds * float64(time.Second))
	var tr *Tracer
	if traced {
		tr = newTracer()
	}

	var (
		in      *inputs
		sys     *system
		setups  []float64
		genSecs float64
	)
	for k := 0; k < setupReps; k++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var gen time.Duration
		var err error
		if in, gen, err = makeInputs(wl.spec, seed); err != nil {
			return err
		}
		if sys, err = startSystem(ctx, in, tr, env.tmp); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		genSecs = gen.Seconds()
	}
	defer sys.close()
	res.set("setup_s", median(setups))
	res.logf("setup: %d deployments, median %.3fs (corpus generation %.4fs of it)", setupReps, median(setups), genSecs)

	orc, err := buildOracle(in)
	if err != nil {
		return err
	}
	res.logf("oracle: %d models fitted in-process (mean fit %.2f ms), %d batches each", len(in.models), mean(orc.fitMS), batchesPerDataset)

	nw := workers()
	run := &servingRun{wl: wl, in: in, orc: orc, sys: sys, plan: makePlan(wl, in, seed), tr: tr}
	for w := 0; w < nw; w++ {
		run.clients = append(run.clients, sys.newClient(tr))
	}
	run.buildNullFrames()

	// Harness ceiling: the same generator, clients and plan against a
	// handler that does no work.
	nsys, err := nullSystem(run.nullBody)
	if err != nil {
		return err
	}
	nsys.modelIDs, nsys.dsIDs = sys.modelIDs, sys.dsIDs
	null := &servingRun{wl: wl, in: in, orc: orc, sys: nsys, plan: run.plan, null: true}
	for w := 0; w < nw; w++ {
		null.clients = append(null.clients, nsys.newClient(nil))
	}
	next := int64(0)
	var ceilings []float64
	for k := 0; k <= nullWindows; k++ {
		rate, _, _ := closedLoop(nullDur, nw, next, null.op)
		next += closedIDs
		if k > 0 {
			ceilings = append(ceilings, rate)
		}
	}
	ceiling := median(ceilings)
	nsys.close()
	res.logf("harness: %d connections, GOMAXPROCS %d; null-handler ceiling %.0f req/s (rungs above %.0f req/s are harness-limited)", nw, env.gomaxprocs, ceiling, harnessFrac*ceiling)

	// The timed part alternates fixed-rate windows with closed-loop
	// capacity windows (traced runs: untraced with traced fixed-rate
	// windows), so each figure is a median over windows spread across the
	// whole run rather than one stretch of it.
	regs := sys.registries()
	cycles := int(budget / (2 * cycleWindow))
	if cycles < 2 {
		cycles = 2
	}
	var (
		plain, tracedW []*phase
		capacity       []float64
		cpu            time.Duration
		good           int
		kc             *kernelClock
	)
	if traced {
		kc = newKernelClock()
	}
	before := snapshotCounters(regs)
	var heapPeaks []float64
	for c := 0; c < cycles; c++ {
		heap := startHeapSampler(time.Millisecond, cycleWindow)
		c0 := cpuTime()
		p := openLoop(wl.rate, cycleWindow, nw, next, run.op, nil)
		cpu += cpuTime() - c0
		heapPeaks = append(heapPeaks, heap.Stop()...)
		next += int64(p.Attempted)
		good += p.Attempted - p.Failed
		plain = append(plain, p)
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if traced {
			kc.install()
			tr.on.Store(true)
			p := openLoop(wl.rate, cycleWindow, nw, next, run.op, tr)
			tr.on.Store(false)
			kc.uninstall()
			next += int64(p.Attempted)
			tracedW = append(tracedW, p)
			res.Attempted += p.Attempted
			res.Failed += p.Failed
			continue
		}
		rate, attempted, failed := closedLoop(cycleWindow, nw, next, run.capacityOp)
		next += closedIDs
		capacity = append(capacity, rate)
		res.Attempted += attempted
		res.Failed += failed
	}
	after := snapshotCounters(regs)
	fixed := mergePhases(plain)
	p50 := windowMedian(plain, 0.5)
	res.set("latency_p50_ms", p50)
	res.set("cpu_ms_per_op", ms(cpu)/math.Max(1, float64(good)))
	res.set("peak_heap_mb", median(heapPeaks))
	res.logf("fixed rate %.0f/s in %d windows of %v: %d attempted, %d failed (%d unsent); median over windows of p50 %.3f ms; p99 %.3f ms over all %d samples; generator lag p99 %.3f ms",
		wl.rate, len(plain), cycleWindow, fixed.Attempted, fixed.Failed, fixed.Unsent, p50, fixed.P99, fixed.Attempted, fixed.LagP99)
	for _, k := range []string{"predict", "train", "upload"} {
		if xs := fixed.ByKind[k]; len(xs) > 0 {
			res.logf("  %-8s n=%-6d p50 %.3f ms  p99 %.3f ms", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
		}
	}
	if !traced {
		res.set("throughput_per_s", median(capacity))
		res.logf("closed-loop capacity with %d connections: median %.0f req/s over %d windows of %v", nw, median(capacity), len(capacity), cycleWindow)
	} else {
		t50 := windowMedian(tracedW, 0.5)
		res.set("ledger.tracing_overhead_pct", 100*(t50-p50)/p50)
		res.logf("traced windows: median p50 %.3f ms against %.3f ms untraced", t50, p50)
		fixed = mergePhases(tracedW)

		// The SLO ladder, untraced, starts at the last rung below half of
		// one closed-loop capacity window and climbs until overload.
		rate, attempted, failed := closedLoop(cycleWindow, nw, next, run.capacityOp)
		next += closedIDs
		res.Attempted += attempted
		res.Failed += failed
		startRate := wl.rate
		for startRate*ladderStep < rate/2 {
			startRate *= ladderStep
		}
		ladderStart := time.Now()
		best, rungs := ladder(plain[len(plain)-1], startRate, wl.sloMS, ceiling, func(rate float64) *phase {
			if time.Since(ladderStart)+rungDur > ladderBudget {
				return nil
			}
			p := openLoop(rate, rungDur, nw, next, run.op, nil)
			next += int64(p.Attempted)
			time.Sleep(20 * time.Millisecond) // let the last responses land
			return p
		})
		res.logf("SLO ladder (p99 limit %.0f ms, no failed arrival, no growing backlog; step x%.2f, %v rungs):", wl.sloMS, ladderStep, rungDur)
		for _, r := range rungs {
			switch {
			case r.Harness:
				res.logf("  offered %8.0f/s  harness-limited (above %.0f%% of the null ceiling), not run", r.Rate, 100*harnessFrac)
			default:
				res.logf("  offered %8.0f/s  goodput %8.1f/s  p99 %8.3f ms  lag p99 %8.3f ms  failed %5d  backlog growing %-5t  %s", r.Rate, r.Goodput, r.P99, r.LagP99, r.Failed, r.growing(), passWord(r.Pass))
			}
		}
		res.logf("max_rps_at_slo %.1f req/s (offered %.0f/s); null ceiling %.0f req/s", best.Goodput, best.Rate, ceiling)
		res.set("slo.max_rps_at_slo", best.Goodput)
	}

	if err := run.verifyFresh(8); err != nil {
		return err
	}
	digest, err := run.labelDigest()
	if err != nil {
		return err
	}
	env.labelDigest = digest
	res.logf("oracle: every timed predict checked; label digest over all (model, batch) pairs %s", digest[:16])
	run.verdict(res)

	if traced {
		spans := tr.take()
		servingLayers(run, spans, fixed, before, after, kc, ceiling, genSecs, res)
		if err := writeSpans(env.tracePath(wl.name, seed), spans); err != nil {
			return err
		}
	}
	return nil
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// counterNames are the program's counters the traced run reads.
var counterNames = []string{
	"mlaas_client_retries_total",
	telemetry.ModelCacheHits, telemetry.ModelCacheMisses, telemetry.ModelCacheEvictions, telemetry.ModelCacheCoalesced,
	telemetry.AdmissionShedTotal,
	telemetry.StoreHits, telemetry.StoreMisses,
	telemetry.RouterFailoversTotal, telemetry.RouterRepairsTotal,
}

var stageNames = []string{"fit", "predict", "featsel", "preprocess", "score"}

type counterSnap map[string]float64

func snapshotCounters(regs []*telemetry.Registry) counterSnap {
	s := counterSnap{}
	for _, n := range counterNames {
		s[n] = counterSum(regs, n)
	}
	for _, st := range stageNames {
		s["stage/"+st] = stageSeconds(regs, st)
	}
	return s
}

func (a counterSnap) delta(b counterSnap, name string) float64 { return b[name] - a[name] }

// servingLayers fills the per-layer metrics of a serving workload from the
// traced phase's spans, the program's counters and off-path timings of the
// layers' public functions on the workload's own inputs.
func servingLayers(run *servingRun, spans []Span, fixed *phase, before, after counterSnap, kc *kernelClock, ceiling, genSecs float64, res *result) {
	lt := groupSpans(spans)
	costs := pairCosts(run, res)
	costOf := func(req int64) pairCost {
		pl := run.plan[int(req%int64(len(run.plan)))]
		return costs[pl.model][pl.batch]
	}
	l := predictLedger(lt, run.wl.spec.replicas > 0, costOf)
	largest, unexplained := l.print(&res.report, run.wl.name+" (predict requests)")
	if l.n == 0 {
		res.fail("no complete predict traces")
	}
	if l.missing > 0 {
		res.fail("%d traced predict requests lack a span", l.missing)
	}
	if (unexplained < ledgerMinPct || unexplained > ledgerMaxPct) && (run.wl.name == "predict" || run.wl.name == "routed") {
		res.fail("ledger does not close: %.2f%% unexplained (tolerance %.0f%% to %.0f%%)", unexplained, ledgerMinPct, ledgerMaxPct)
	}
	res.logf("largest layer on %s: %s", run.wl.name, largest)
	self := map[string]float64{}
	for _, r := range l.rows {
		self[r.Layer] = r.SelfUS
	}
	res.set("ledger.unexplained_pct", unexplained)
	res.set("harness.lag_p99_ms", fixed.LagP99)
	res.set("harness.null_ceiling_rps", ceiling)
	res.set("client.self_us", self["client"])
	res.set("transport.us", self["transport"])
	res.set("cluster.relay_us", self["cluster"])
	res.set("service.predict_handler_us", l.handlerUS)
	res.set("service.train_handler_ms", meanDur(lt["service.train"])/1000)

	// Wire and forward figures are over the traced predicts' own mix.
	var enc, dec, fwd []float64
	byFamily := map[string][]float64{}
	for req := range lt["request.predict"] {
		pl := run.plan[int(req%int64(len(run.plan)))]
		c := costs[pl.model][pl.batch]
		enc = append(enc, c.encRows+c.encLabels)
		dec = append(dec, c.decRows+c.decLabels)
		fwd = append(fwd, c.forward)
		fam := run.in.models[pl.model].family
		byFamily[fam] = append(byFamily[fam], c.forward)
	}
	res.set("wire.encode_us", mean(enc))
	res.set("wire.decode_us", mean(dec))
	res.set("classifiers.forward_us", mean(fwd))
	for _, fam := range []string{"mlp", "boosted", "knn", "logreg", "randomforest"} {
		res.set("classifiers.forward_us."+fam, mean(byFamily[fam]))
	}
	res.logf("off-path per traced predict request: wire encode %.1f us, wire decode %.1f us, forward %.1f us",
		mean(enc), mean(dec), mean(fwd))

	d := func(name string) float64 { return before.delta(after, name) }
	res.set("client.retries", d("mlaas_client_retries_total"))
	res.set("cluster.failovers", d(telemetry.RouterFailoversTotal))
	res.set("cluster.repairs", d(telemetry.RouterRepairsTotal))
	res.set("service.modelcache_hit_ratio", ratio(d(telemetry.ModelCacheHits), d(telemetry.ModelCacheHits)+d(telemetry.ModelCacheMisses)))
	res.set("service.evictions", d(telemetry.ModelCacheEvictions))
	res.set("service.coalesced", d(telemetry.ModelCacheCoalesced))
	res.set("service.shed", d(telemetry.AdmissionShedTotal))
	res.set("store.hit_ratio", ratio(d(telemetry.StoreHits), d(telemetry.StoreHits)+d(telemetry.StoreMisses)))
	for _, st := range stageNames {
		res.set("pipeline."+st+"_s", d("stage/"+st))
	}
	res.set("linalg.gemm_nt_s", kc.seconds(linalg.KernelGEMMNT))
	res.set("linalg.distance_s", kc.seconds(linalg.KernelDistance))
	res.set("synth.corpus_gen_s", genSecs)
	res.set("classifiers.fit_ms", mean(run.orc.fitMS))
	res.zeroLayers("pipeline.featcache_", "core.") // the sweep's layers

	pct := func(k string, q float64) float64 {
		if xs := fixed.ByKind[k]; len(xs) > 0 {
			return quantile(xs, q)
		}
		return 0
	}
	res.set("ops.predict_p99_ms", pct("predict", 0.99))
	res.set("ops.train_p50_ms", pct("train", 0.5))
	res.set("ops.train_p99_ms", pct("train", 0.99))

	storeCosts(run, res)
}

func meanDur(m map[int64]time.Duration) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range m {
		s += us(d)
	}
	return s / float64(len(m))
}

// offPathReps is how often each (model, batch) pair is timed off the
// request path; its cost is the median.
const offPathReps = 3

// pairCosts times, for every (model, batch) pair of the workload, the wire
// codec steps and the forward pass outside any request. The forward pass
// is FittedModel.Predict fanned over row shards by
// pipeline.PredictSharded at the server's default shard count, as the
// server runs it.
func pairCosts(run *servingRun, res *result) [][]pairCost {
	costs := make([][]pairCost, len(run.in.models))
	var reps [offPathReps]pairCost
	for mi, m := range run.in.models {
		fm := run.orc.fitted[mi]
		for b, rows := range run.in.pools[m.ds] {
			labels := run.orc.expect[mi][b]
			for k := range reps {
				t0 := time.Now()
				body := wire.EncodeMatrixStream(nil, rows, 0)
				t1 := time.Now()
				if _, err := wire.DecodeMatrixStream(bytes.NewReader(body)); err != nil {
					res.fail("wire decode: %v", err)
				}
				t2 := time.Now()
				got := pipeline.PredictSharded(fm.Predict, rows, 0)
				t3 := time.Now()
				frame := wire.AppendLabelsFrame(nil, got, wire.FlagLast)
				t4 := time.Now()
				if _, err := wire.DecodeLabelsStream(bytes.NewReader(frame)); err != nil {
					res.fail("wire label decode: %v", err)
				}
				t5 := time.Now()
				reps[k] = pairCost{encRows: us(t1.Sub(t0)), decRows: us(t2.Sub(t1)), forward: us(t3.Sub(t2)),
					encLabels: us(t4.Sub(t3)), decLabels: us(t5.Sub(t4))}
				if err := checkLabels(got, labels); err != nil {
					res.fail("off-path forward, model %d batch %d: %v", mi, b, err)
				}
			}
			costs[mi] = append(costs[mi], medianCost(reps[:]))
		}
	}
	return costs
}

// medianCost takes the median of each field separately.
func medianCost(cs []pairCost) pairCost {
	field := func(f func(pairCost) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	return pairCost{
		encRows:   field(func(c pairCost) float64 { return c.encRows }),
		decRows:   field(func(c pairCost) float64 { return c.decRows }),
		encLabels: field(func(c pairCost) float64 { return c.encLabels }),
		decLabels: field(func(c pairCost) float64 { return c.decLabels }),
		forward:   field(func(c pairCost) float64 { return c.forward }),
	}
}

// storeCosts times the artifact codec on the workload's fitted models.
func storeCosts(run *servingRun, res *result) {
	var encMS, decMS []float64
	for i, fm := range run.orc.fitted {
		key := fmt.Sprintf("bench/%d", i)
		t0 := time.Now()
		b, err := store.EncodeModel(key, fm)
		t1 := time.Now()
		if err != nil {
			res.fail("store encode: %v", err)
			continue
		}
		if _, _, err := store.DecodeModel(b); err != nil {
			res.fail("store decode: %v", err)
		}
		encMS = append(encMS, ms(t1.Sub(t0)))
		decMS = append(decMS, ms(time.Since(t1)))
	}
	res.set("store.encode_ms", mean(encMS))
	res.set("store.decode_ms", mean(decMS))
}
