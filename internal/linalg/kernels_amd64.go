package linalg

// useAVX2 selects AdamRow's packed-double path. It is a variable so the
// tests can force the scalar path on an AVX2 host.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers on context switch: CPUID.1:ECX has OSXSAVE and AVX, XCR0 has
// the SSE and AVX state bits, and CPUID.7:EBX has AVX2.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// adamRowAVX2 runs AdamRow over the first n elements; n must be a positive
// multiple of 4.
//
//go:noescape
func adamRowAVX2(w, m, v, x *float64, n int, gh float64, s *AdamStep)
