package classifiers

import (
	"fmt"
	"math"
	"testing"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

// referenceMLPFit is the historical per-weight scalar training loop, kept
// verbatim (one allocated row per hidden unit, Adam state as m/v pairs,
// one linalg.Dot per unit in the forward pass). It is the oracle that
// MLP.Fit's vector kernels must reproduce bit for bit.
func referenceMLPFit(p Params, x [][]float64, y []int, r *rng.RNG) (w1 [][]float64, b1, w2 []float64, b2 float64) {
	n, d := len(x), len(x[0])
	hidden := max(p.Int("hidden", 16), 2)
	alpha := p.Float("alpha", 1e-4)
	epochs := p.Int("max_iter", 60)
	actKind := actKindOf(p.String("activation", "relu"))
	adam := p.String("solver", "adam") == "adam"

	scale := math.Sqrt(2 / float64(d))
	w1 = make([][]float64, hidden)
	b1 = make([]float64, hidden)
	w2 = make([]float64, hidden)
	for h := range w1 {
		w1[h] = make([]float64, d)
		for j := range w1[h] {
			w1[h][j] = r.NormFloat64() * scale
		}
		w2[h] = r.NormFloat64() * math.Sqrt(2/float64(hidden))
	}
	type adamState struct{ m, v float64 }
	aw1 := make([][]adamState, hidden)
	for h := range aw1 {
		aw1[h] = make([]adamState, d)
	}
	ab1 := make([]adamState, hidden)
	aw2 := make([]adamState, hidden)
	var ab2 adamState
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	beta1Pow, beta2Pow := 1.0, 1.0
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	z1 := make([]float64, hidden)
	a1 := make([]float64, hidden)
	nf := float64(n)
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := 0.01
		if !adam {
			lr = 0.1 / (1 + 0.05*float64(epoch))
		}
		for _, i := range order {
			beta1Pow *= beta1
			beta2Pow *= beta2
			corr1 := 1 / (1 - beta1Pow)
			corr2 := 1 / (1 - beta2Pow)
			xi := x[i]
			for h := 0; h < hidden; h++ {
				z := linalg.Dot(w1[h], xi) + b1[h]
				z1[h] = z
				switch actKind {
				case actTanh:
					a1[h] = math.Tanh(z)
				case actLogistic:
					a1[h] = linalg.Sigmoid(z)
				default:
					if z > 0 {
						a1[h] = z
					} else {
						a1[h] = 0
					}
				}
			}
			p := linalg.Sigmoid(linalg.Dot(w2, a1) + b2)
			g2 := p - float64(y[i])
			for h := 0; h < hidden; h++ {
				gw2 := g2*a1[h] + alpha*w2[h]/nf
				var grad float64
				switch actKind {
				case actTanh:
					grad = 1 - a1[h]*a1[h]
				case actLogistic:
					grad = a1[h] * (1 - a1[h])
				default:
					if z1[h] > 0 {
						grad = 1
					}
				}
				gh := g2 * w2[h] * grad
				if adam {
					st2 := &aw2[h]
					st2.m = beta1*st2.m + (1-beta1)*gw2
					st2.v = beta2*st2.v + (1-beta2)*gw2*gw2
					w2[h] -= lr * (st2.m * corr1) / (math.Sqrt(st2.v*corr2) + eps)
					for j, xj := range xi {
						gw1 := gh*xj + alpha*w1[h][j]/nf
						st := &aw1[h][j]
						st.m = beta1*st.m + (1-beta1)*gw1
						st.v = beta2*st.v + (1-beta2)*gw1*gw1
						mhat := st.m * corr1
						vhat := st.v * corr2
						w1[h][j] -= lr * mhat / (math.Sqrt(vhat) + eps)
					}
					stb := &ab1[h]
					stb.m = beta1*stb.m + (1-beta1)*gh
					stb.v = beta2*stb.v + (1-beta2)*gh*gh
					b1[h] -= lr * (stb.m * corr1) / (math.Sqrt(stb.v*corr2) + eps)
				} else {
					w2[h] -= lr * gw2
					for j, xj := range xi {
						gw1 := gh*xj + alpha*w1[h][j]/nf
						w1[h][j] -= lr * gw1
					}
					b1[h] -= lr * gh
				}
			}
			if adam {
				ab2.m = beta1*ab2.m + (1-beta1)*g2
				ab2.v = beta2*ab2.v + (1-beta2)*g2*g2
				b2 -= lr * (ab2.m * corr1) / (math.Sqrt(ab2.v*corr2) + eps)
			} else {
				b2 -= lr * g2
			}
		}
	}
	return w1, b1, w2, b2
}

// TestMLPFitMatchesScalarReference requires every trained weight (w1, b1,
// w2, b2) to be bit-identical to the historical scalar loop, for each
// activation and solver, at input widths that leave every AdamRow tail
// residue and hidden sizes that leave a forward-pass remainder. The
// scalar reference is the kernel-off arm; linalg's
// TestAdamRowMatchesScalar pins AdamRow's own AVX2 and scalar paths to
// each other.
func TestMLPFitMatchesScalarReference(t *testing.T) {
	for _, act := range []string{"relu", "tanh", "logistic"} {
		for _, solver := range []string{"adam", "sgd"} {
			for _, d := range []int{1, 3, 4, 5, 24} {
				for _, hidden := range []int{6, 16} {
					name := fmt.Sprintf("%s/%s/d=%d/hidden=%d", act, solver, d, hidden)
					x, y := benchData(48, d)
					p := Params{"activation": act, "solver": solver, "hidden": hidden, "max_iter": 6, "alpha": 0.01}
					m := &MLP{params: p}
					if err := m.Fit(x, y, rng.New(21)); err != nil {
						t.Fatal(err)
					}
					w1, b1, w2, b2 := referenceMLPFit(p, x, y, rng.New(21))
					for h := range w1 {
						assertSameBits(t, name+" w1", m.w1[h], w1[h])
					}
					assertSameBits(t, name+" b1", m.b1, b1)
					assertSameBits(t, name+" w2", m.w2, w2)
					assertSameBits(t, name+" b2", []float64{m.b2}, []float64{b2})
				}
			}
		}
	}
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
