package classifiers

import (
	"testing"

	"mlaasbench/internal/rng"
)

// The forward-pass benchmarks behind BENCH_PR5.json. They use only the
// public Fit/Predict surface so the same file runs unmodified against trees
// that predate the batch-kernel layer — that is how the interleaved A/B
// comparison is produced.

func benchData(n, d int) ([][]float64, []int) {
	r := rng.New(1234)
	x := make([][]float64, n)
	y := make([]int, n)
	backing := make([]float64, n*d)
	for i := range x {
		row := backing[i*d : (i+1)*d]
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		if r.Float64() > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

// BenchmarkMLPForwardBatch measures a 512-row batched predict against a
// fitted 32-unit MLP — the serving forward pass after PR 3's fit-once split.
func BenchmarkMLPForwardBatch(b *testing.B) {
	x, y := benchData(512, 24)
	m := &MLP{params: Params{"hidden": 32, "max_iter": 4}}
	if err := m.Fit(x, y, rng.New(7)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(x)
	}
}

// BenchmarkKNNPredictBatch measures a 256-query batched predict against a
// 2048-row training set under the default Euclidean metric.
func BenchmarkKNNPredictBatch(b *testing.B) {
	x, y := benchData(2048, 24)
	k := &KNN{params: Params{"n_neighbors": 5}}
	if err := k.Fit(x, y, rng.New(7)); err != nil {
		b.Fatal(err)
	}
	queries, _ := benchData(256, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Predict(queries)
	}
}

// BenchmarkMLPFit measures one default-shaped MLP fit (adam, relu, 16
// hidden units, 60 epochs) on a 182×24 training set — the size of a
// 70% training split of one benchmark-sweep dataset, where MLP fitting is
// the largest cost.
func BenchmarkMLPFit(b *testing.B) {
	x, y := benchData(182, 24)
	p := Params{"activation": "relu", "solver": "adam", "hidden": 16, "max_iter": 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &MLP{params: p}
		if err := m.Fit(x, y, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}
