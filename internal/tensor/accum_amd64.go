package tensor

// haveAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX register state.
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// accumAVX2 is accum's AVX2 path. The caller has checked every bound:
// n >= 1, k >= 1, and the last term's a and b elements lie inside their
// slices.
//
//go:noescape
func accumAVX2(d *float64, n int, a *float64, lda int, b *float64, ldb int, k int)
