package linalg

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// This file is the batch-kernel layer: blocked matrix multiply, batched
// pairwise distances, and fused vector kernels that the classifier forward
// passes route through. Two contracts hold for every kernel here:
//
//  1. Determinism. For each output element the floating-point accumulation
//     order is exactly the order the naive reference loop uses (ascending
//     k for products, ascending feature index for distances). Blocking only
//     re-tiles the *independent* output dimensions, so results are
//     bit-identical to the scalar code they replace — asserted by the
//     exact-equality property tests in kernels_test.go.
//  2. No hidden allocation. Every *Into kernel writes into caller-owned
//     memory, so serving hot paths can reuse buffers across requests.
//
// Block sizes are chosen for ~32KB L1 data caches: one B-panel or one
// training-row tile stays resident while the outer dimension streams.
const (
	gemmJBlock = 128 // output columns per B panel
	gemmKBlock = 128 // inner-dimension entries per panel
	gemmRBlock = 64  // rows of B (= output columns) per MulTransBInto tile
	distRBlock = 128 // training rows per SquaredEuclideanBatch tile
)

// Kernel names reported to the kernel-timing hook (see SetKernelHook).
const (
	KernelGEMM     = "gemm"     // MulInto
	KernelGEMMNT   = "gemm_nt"  // MulTransBInto (B transposed, dot form)
	KernelGEMV     = "gemv"     // MulVecInto
	KernelDistance = "distance" // SquaredEuclideanBatch
)

// KernelFunc observes one batch-kernel invocation's wall-clock duration.
type KernelFunc func(kernel string, seconds float64)

var kernelHook atomic.Pointer[KernelFunc]

// SetKernelHook installs (or with nil removes) the process-wide observer
// called after every batch-kernel invocation — the bridge that lands kernel
// time in a telemetry registry without this package importing one. The hook
// must be safe for concurrent use; installation is atomic, so it can be
// swapped between benchmark passes.
func SetKernelHook(f KernelFunc) {
	if f == nil {
		kernelHook.Store(nil)
		return
	}
	kernelHook.Store(&f)
}

// kernelStart returns the start time when a hook is installed, else zero.
// The zero check in kernelEnd keeps un-hooked kernels at one atomic load.
func kernelStart() time.Time {
	if kernelHook.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func kernelEnd(kernel string, start time.Time) {
	if start.IsZero() {
		return
	}
	if h := kernelHook.Load(); h != nil {
		(*h)(kernel, time.Since(start).Seconds())
	}
}

// MulInto computes dst = a·b with j/k blocking, reusing dst's backing array
// (dst is zeroed first). dst must be pre-shaped a.Rows×b.Cols and must not
// alias a or b. Each output element accumulates its products in ascending-k
// order — the same order as the naive triple loop, including its skip of
// zero a-elements — so the result is bit-identical to Mul's historical
// output while the blocking keeps one kBlock×jBlock panel of b resident in
// cache across every row of a.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulInto shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulInto dst %dx%d for %dx%d product", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	start := kernelStart()
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for jj := 0; jj < b.Cols; jj += gemmJBlock {
		jMax := min(jj+gemmJBlock, b.Cols)
		for kk := 0; kk < a.Cols; kk += gemmKBlock {
			kMax := min(kk+gemmKBlock, a.Cols)
			for i := 0; i < a.Rows; i++ {
				ai := a.Data[i*a.Cols : (i+1)*a.Cols]
				di := dst.Data[i*dst.Cols+jj : i*dst.Cols+jMax]
				for k := kk; k < kMax; k++ {
					aik := ai[k]
					if aik == 0 {
						continue
					}
					bk := b.Data[k*b.Cols+jj : k*b.Cols+jMax]
					bk = bk[:len(di)]
					for j, bkj := range bk {
						di[j] += aik * bkj
					}
				}
			}
		}
	}
	kernelEnd(KernelGEMM, start)
	return dst
}

// MulTransBInto computes dst = a·bᵀ, i.e. dst[i][j] = Dot(a.Row(i),
// b.Row(j)), reusing dst's backing array. Both operands are walked along
// their contiguous rows (the natural layout for weight matrices stored as
// rows) and the j-tiling keeps a block of b's rows cache-resident while a
// streams. Four output elements are computed per pass with four independent
// accumulators: a scalar dot is latency-bound on the FP add chain, so the
// independent chains are where the batch speedup comes from. Each
// accumulator still sums its own products in ascending-k order exactly like
// Dot, so every element stays bit-identical to the per-row code. This is
// the batch forward-pass kernel: X (rows×features) against a weight matrix
// W (units×features) yields all unit pre-activations in one call.
func MulTransBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulTransBInto width mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulTransBInto dst %dx%d for %dx%d product", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	start := kernelStart()
	w := b.Cols
	for jj := 0; jj < b.Rows; jj += gemmRBlock {
		jMax := min(jj+gemmRBlock, b.Rows)
		for i := 0; i < a.Rows; i++ {
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			j := jj
			for ; j+3 < jMax; j += 4 {
				b0 := b.Data[j*w : j*w+w][:len(ai)]
				b1 := b.Data[(j+1)*w : (j+1)*w+w][:len(ai)]
				b2 := b.Data[(j+2)*w : (j+2)*w+w][:len(ai)]
				b3 := b.Data[(j+3)*w : (j+3)*w+w][:len(ai)]
				var s0, s1, s2, s3 float64
				for k, av := range ai {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
			}
			for ; j < jMax; j++ {
				bj := b.Data[j*w : j*w+w]
				bj = bj[:len(ai)]
				s := 0.0
				for k, av := range ai {
					s += av * bj[k]
				}
				di[j] = s
			}
		}
	}
	kernelEnd(KernelGEMMNT, start)
	return dst
}

// MulVecInto computes dst = m·v, reusing the caller's dst (len m.Rows).
// Row-by-row ascending accumulation, identical to MulVec without the
// per-call allocation.
func MulVecInto(dst []float64, m *Matrix, v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVecInto shape mismatch")
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto dst length mismatch")
	}
	start := kernelStart()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		row = row[:len(v)]
		s := 0.0
		for k, rv := range row {
			s += rv * v[k]
		}
		dst[i] = s
	}
	kernelEnd(KernelGEMV, start)
	return dst
}

// ColInto copies column j of m into the caller's dst (len m.Rows) and
// returns it — Col without the per-call allocation, for loops that walk
// many columns (e.g. LDA's eigen solver).
func ColInto(dst []float64, m *Matrix, j int) []float64 {
	if len(dst) != m.Rows {
		panic("linalg: ColInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// DotBias returns Dot(a, b) + bias with the same rounding as the two-step
// form: the products accumulate from zero in ascending order and the bias
// is added once at the end. The reslice lets the compiler drop the
// per-element bounds check that Dot pays — this is the fused kernel behind
// the linear-model forward passes (LDA, logistic regression).
func DotBias(bias float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: DotBias length mismatch")
	}
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s + bias
}

// DotFrom accumulates init + Σ a[i]·b[i] starting *from* init — the
// rounding of a running accumulator seeded with a bias, as in the MLP
// output layer (z = b₂; z += w₂[h]·a[h]). Note DotFrom(x, a, b) and
// DotBias(x, a, b) differ in rounding; pick the one matching the scalar
// code being replaced.
func DotFrom(init float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: DotFrom length mismatch")
	}
	b = b[:len(a)]
	s := init
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Adam's standard hyperparameters, fixed by AdamRow. They are untyped
// constants, so 1-AdamBeta1 and 1-AdamBeta2 fold exactly to 0.1 and 0.001
// before rounding to float64 — the values the vector kernel broadcasts.
const (
	AdamBeta1 = 0.9
	AdamBeta2 = 0.999
	AdamEps   = 1e-8
)

// AdamStep holds one training sample's Adam constants. Callers fill one
// value per sample and pass its address to every AdamRow call of that
// sample, so no struct is copied per row.
type AdamStep struct {
	LR    float64 // learning rate
	Alpha float64 // L2 penalty
	N     float64 // training-set size the penalty is spread over
	Corr1 float64 // first-moment bias correction, 1/(1-β1ᵗ)
	Corr2 float64 // second-moment bias correction, 1/(1-β2ᵗ)
}

// AdamRow applies one Adam step to a row of weights w whose loss gradient is
// g·x[j] plus an L2 term, updating the moment estimates m and v in place:
//
//	grad = g·x[j] + (α·w[j])/N
//	m[j] = β1·m[j] + (1-β1)·grad
//	v[j] = β2·v[j] + ((1-β2)·grad)·grad
//	w[j] = w[j] - (lr·(m[j]·corr1)) / (√(v[j]·corr2) + ε)
//
// w, m and v must be at least len(x) long and must not overlap.
//
// Determinism contract: every element goes through exactly these IEEE
// operations in this order — the order Go evaluates adamRowGeneric's
// expressions in — whichever path runs. On amd64 hosts with AVX2
// (detected once at start-up), four elements per pass go through
// packed-double instructions, one IEEE op per lane with no FMA contraction
// and no reassociation. The scalar loop handles the tail shorter than four
// and every other host. Results are therefore bit-identical across paths;
// only NaN payloads are unspecified, as they are in Go itself. No kernel
// hook fires: MLP training calls this once per hidden unit per sample.
func AdamRow(w, m, v, x []float64, g float64, s *AdamStep) {
	n := len(x)
	w, m, v = w[:n], m[:n], v[:n]
	i := 0
	if useAVX2 && n >= 4 {
		i = n &^ 3
		adamRowAVX2(&w[0], &m[0], &v[0], &x[0], i, g, s)
	}
	adamRowGeneric(w[i:], m[i:], v[i:], x[i:], g, s)
}

func adamRowGeneric(w, m, v, x []float64, g float64, s *AdamStep) {
	lr, alpha, n, corr1, corr2 := s.LR, s.Alpha, s.N, s.Corr1, s.Corr2
	w, m, v = w[:len(x)], m[:len(x)], v[:len(x)]
	for j, xj := range x {
		grad := g*xj + alpha*w[j]/n
		m[j] = AdamBeta1*m[j] + (1-AdamBeta1)*grad
		v[j] = AdamBeta2*v[j] + (1-AdamBeta2)*grad*grad
		w[j] -= lr * (m[j] * corr1) / (math.Sqrt(v[j]*corr2) + AdamEps)
	}
}

// SquaredEuclideanBatch fills dst (row-major len(qs)×x.Rows, caller-owned)
// with the squared L2 distance from every query to every row of x:
// dst[q*x.Rows+i] = SquaredEuclidean(x.Row(i), qs[q]). The training tile
// loop keeps distRBlock rows of x cache-resident across all queries, which
// is where the win over per-query streaming comes from; per (query, row)
// pair the subtract-square accumulation runs in ascending feature order,
// exactly like SquaredEuclidean, so every distance is bit-identical. Eight
// training rows are processed per pass with eight independent accumulators —
// the scalar distance loop is latency-bound on its FP add chain, and the
// independent chains (plus the query row staying in registers across all
// four) are the batch win. Queries must be at least x.Cols wide (extra
// trailing entries are ignored, matching SquaredEuclidean's
// iterate-over-the-first-argument behaviour); a narrower query panics, the
// ragged-input guard.
func SquaredEuclideanBatch(dst []float64, qs [][]float64, x *Matrix) {
	n, w := x.Rows, x.Cols
	if len(dst) < len(qs)*n {
		panic(fmt.Sprintf("linalg: SquaredEuclideanBatch dst len %d < %d×%d", len(dst), len(qs), n))
	}
	if n == 0 || len(qs) == 0 {
		return
	}
	for qi, q := range qs {
		if len(q) < w {
			panic(fmt.Sprintf("linalg: SquaredEuclideanBatch query %d has %d features, matrix has %d", qi, len(q), w))
		}
	}
	start := kernelStart()
	for xx := 0; xx < n; xx += distRBlock {
		xMax := min(xx+distRBlock, n)
		for qi, q := range qs {
			qv := q[:w]
			drow := dst[qi*n : (qi+1)*n]
			ri := xx
			for ; ri+7 < xMax; ri += 8 {
				r0 := x.Data[ri*w : ri*w+w][:len(qv)]
				r1 := x.Data[(ri+1)*w : (ri+1)*w+w][:len(qv)]
				r2 := x.Data[(ri+2)*w : (ri+2)*w+w][:len(qv)]
				r3 := x.Data[(ri+3)*w : (ri+3)*w+w][:len(qv)]
				r4 := x.Data[(ri+4)*w : (ri+4)*w+w][:len(qv)]
				r5 := x.Data[(ri+5)*w : (ri+5)*w+w][:len(qv)]
				r6 := x.Data[(ri+6)*w : (ri+6)*w+w][:len(qv)]
				r7 := x.Data[(ri+7)*w : (ri+7)*w+w][:len(qv)]
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				for j, qj := range qv {
					d0 := r0[j] - qj
					s0 += d0 * d0
					d1 := r1[j] - qj
					s1 += d1 * d1
					d2 := r2[j] - qj
					s2 += d2 * d2
					d3 := r3[j] - qj
					s3 += d3 * d3
					d4 := r4[j] - qj
					s4 += d4 * d4
					d5 := r5[j] - qj
					s5 += d5 * d5
					d6 := r6[j] - qj
					s6 += d6 * d6
					d7 := r7[j] - qj
					s7 += d7 * d7
				}
				drow[ri], drow[ri+1], drow[ri+2], drow[ri+3] = s0, s1, s2, s3
				drow[ri+4], drow[ri+5], drow[ri+6], drow[ri+7] = s4, s5, s6, s7
			}
			for ; ri < xMax; ri++ {
				row := x.Data[ri*w : ri*w+w]
				row = row[:len(qv)]
				s := 0.0
				for j, rj := range row {
					d := rj - qv[j]
					s += d * d
				}
				drow[ri] = s
			}
		}
	}
	kernelEnd(KernelDistance, start)
}
