package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric with its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics every traced run prints, on every workload. A
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"harness.lag_p99_ms", "ms"},
	{"harness.null_ceiling_rps", "1/s"},
	{"slo.max_rps_at_slo", "1/s"},
	{"client.self_us", "us"},
	{"client.retries", "count"},
	{"transport.us", "us"},
	{"cluster.relay_us", "us"},
	{"cluster.failovers", "count"},
	{"cluster.repairs", "count"},
	{"service.predict_handler_us", "us"},
	{"service.train_handler_ms", "ms"},
	{"service.modelcache_hit_ratio", "ratio"},
	{"service.evictions", "count"},
	{"service.coalesced", "count"},
	{"service.shed", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.decode_ms", "ms"},
	{"store.encode_ms", "ms"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"classifiers.forward_us", "us"},
	{"classifiers.forward_us.mlp", "us"},
	{"classifiers.forward_us.boosted", "us"},
	{"classifiers.forward_us.knn", "us"},
	{"classifiers.forward_us.logreg", "us"},
	{"classifiers.forward_us.randomforest", "us"},
	{"classifiers.fit_ms", "ms"},
	{"pipeline.fit_s", "s"},
	{"pipeline.predict_s", "s"},
	{"pipeline.featsel_s", "s"},
	{"pipeline.preprocess_s", "s"},
	{"pipeline.score_s", "s"},
	{"pipeline.featcache_hit_ratio", "ratio"},
	{"linalg.gemm_nt_s", "s"},
	{"linalg.distance_s", "s"},
	{"core.worker_busy_ratio", "ratio"},
	{"core.slowest_unit_s", "s"},
	{"synth.corpus_gen_s", "s"},
	{"ops.predict_p99_ms", "ms"},
	{"ops.train_p50_ms", "ms"},
	{"ops.train_p99_ms", "ms"},
	{"ledger.unexplained_pct", "%"},
	{"ledger.tracing_overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the oracle verdict, the operation counts,
// the metrics and a human-readable report printed before the JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	report strings.Builder
	errs   []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metricValue{}} }

func (r *result) logf(format string, args ...any) { fmt.Fprintf(&r.report, format+"\n", args...) }

// fail marks the run incorrect: an oracle or a consistency check failed.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// zeroLayers sets to 0 every per-layer metric whose name starts with one
// of the prefixes: the layers a workload does not reach.
func (r *result) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// finish keeps only the metric set the mode reports, checks that every
// one of them is present, and writes the report, the metric table and
// the JSON line (last) to w.
func (r *result) finish(w io.Writer, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	keep := map[string]metricValue{}
	for _, d := range want {
		v, ok := r.Metrics[d.name]
		if !ok {
			r.fail("metric %s was not measured", d.name)
			v = metricValue{Unit: d.unit}
		}
		keep[d.name] = v
	}
	r.Metrics = keep
	if r.Attempted < 1 {
		r.fail("no operation attempted")
		r.Attempted = 1
	}
	fmt.Fprint(w, r.report.String())
	names := make([]string, 0, len(keep))
	for n := range keep {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", n, keep[n].Value, keep[n].Unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
