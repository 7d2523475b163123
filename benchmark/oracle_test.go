package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlaasbench/internal/core"
	"mlaasbench/internal/metrics"
)

// startTestRun deploys a small predict workload with its oracle.
func startTestRun(t *testing.T) *servingRun {
	t.Helper()
	wl := workloadPredict
	wl.spec.datasets = wl.spec.datasets[:1]
	in, _, err := makeInputs(wl.spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := startSystem(context.Background(), in, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.close)
	orc, err := buildOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	run := &servingRun{wl: wl, in: in, orc: orc, sys: sys, plan: makePlan(wl, in, 3)}
	run.clients = append(run.clients, sys.newClient(nil))
	return run
}

func TestCleanRunPasses(t *testing.T) {
	run := startTestRun(t)
	p := openLoop(200, 500*time.Millisecond, 1, 0, run.op, nil)
	res := newResult()
	run.verdict(res)
	if !res.Correct || p.Failed != 0 {
		t.Fatalf("clean run: correct=%t failed=%d errs=%v", res.Correct, p.Failed, res.errs)
	}
}

// A single corrupted oracle label must fail the run: the benchmark checks
// outputs, not only timings.
func TestCorruptedLabelFailsRun(t *testing.T) {
	run := startTestRun(t)
	// Corrupt the label of the plan's first arrival.
	first := run.plan[0]
	if first.kind != 'p' {
		t.Fatalf("plan starts with %q, want a predict", first.kind)
	}
	run.orc.expect[first.model][first.batch][0] ^= 1
	run.op(0, 0)
	res := newResult()
	run.verdict(res)
	if res.Correct {
		t.Fatal("a corrupted label did not fail the run")
	}
	if run.mismatches.Load() != 1 {
		t.Fatalf("mismatches = %d, want 1", run.mismatches.Load())
	}
}

func TestSweepDigestCoversOutputs(t *testing.T) {
	sw := &core.Sweep{
		Datasets: []core.DatasetInfo{{Name: "d"}},
		ByPlatform: map[string]map[string][]core.Measurement{
			"local": {"d": {{Platform: "local", Dataset: "d", Scores: metrics.Scores{F1: 0.5}, Pred: []uint8{1, 2}, Micros: 10}}},
		},
	}
	base, n := sweepDigest(sw)
	if n != 1 {
		t.Fatalf("digest covered %d measurements, want 1", n)
	}
	m := &sw.ByPlatform["local"]["d"][0]
	m.Micros = 99
	if got, _ := sweepDigest(sw); got != base {
		t.Fatal("digest depends on wall-clock Micros")
	}
	m.Pred[1] = 3
	if got, _ := sweepDigest(sw); got == base {
		t.Fatal("digest ignores a changed prediction")
	}
	m.Pred[1] = 2
	m.Scores.F1 = 0.25
	if got, _ := sweepDigest(sw); got == base {
		t.Fatal("digest ignores a changed score")
	}
	if _, ok := committedDigest(sliceName()); !ok {
		t.Fatalf("sweep.digest has no line for %s", sliceName())
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloadNames[i])
		}
	}
}

// The ledger takes wire and forward costs from off-path timings, so the
// handler's remaining time shows as unexplained, and a request missing a
// span is counted, never skipped.
func TestLedgerIsIndependentOfSpans(t *testing.T) {
	var spans []Span
	add := func(req int64, name string, startUS, endUS int64) {
		spans = append(spans, Span{Req: req, Name: name, Start: startUS * 1000, End: endUS * 1000})
	}
	for req := int64(0); req < 2; req++ {
		add(req, "request.predict", 0, 100)
		add(req, "harness.lag", 0, 5)
		add(req, "client.predict", 5, 100)
		add(req, "transport.roundtrip", 15, 90)
		if req == 0 {
			add(req, "service.predict", 20, 80)
		}
	}
	l := predictLedger(groupSpans(spans), false, func(int64) pairCost {
		return pairCost{decRows: 4, encLabels: 1, forward: 25}
	})
	if l.n != 1 || l.missing != 1 {
		t.Fatalf("n=%d missing=%d, want 1 and 1", l.n, l.missing)
	}
	var sb strings.Builder
	largest, unexplained := l.print(&sb, "test")
	// Handler 60 us, of which wire 5 and forward 25 are explained.
	if math.Abs(unexplained-30) > 1e-9 || largest != "classifiers" {
		t.Fatalf("unexplained %.3f%% largest %s, want 30%% and classifiers\n%s", unexplained, largest, sb.String())
	}
}
