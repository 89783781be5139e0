//go:build !amd64 || purego

package mont

import "math/big"

// kernel is always the Go loop here.
var kernel = kernelGo

func detectKernel() int { return kernelGo }

func addMulVVW(z, x []big.Word, y big.Word) big.Word { return addMulVVWGo(z, x, y) }

// mulFused never runs here: there is no fused kernel off amd64 or under purego.
func (m *Modulus) mulFused(z, x, y []big.Word) bool { return false }
