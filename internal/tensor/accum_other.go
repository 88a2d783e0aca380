//go:build !amd64

package tensor

// haveAVX2 is false off amd64: accum always takes its Go path.
const haveAVX2 = false

func accumAVX2(d *float64, n int, a *float64, lda int, b *float64, ldb int, k int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
