//go:build !amd64

package linalg

// useAVX2 is always false off amd64: AdamRow runs its scalar loop.
var useAVX2 = false

func adamRowAVX2(w, m, v, x *float64, n int, gh float64, s *AdamStep) {
	panic("linalg: AVX2 kernel called off amd64")
}
