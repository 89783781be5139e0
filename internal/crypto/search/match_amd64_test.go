//go:build amd64 && !purego

package search

import (
	"strings"
	"testing"

	"repro/internal/crypto/cpu/cputest"
)

// TestMatchKernelFollowsGODEBUG runs this test binary again under GODEBUG
// values that turn features off and holds the kernels the child chose to
// the ones they leave. The two choices are apart: cpu.avx512f=off keeps
// compress's kernel and takes Match to the per-entry scan, cpu.sha=off
// keeps Match's kernel and takes compress to the Go function, and
// cpu.all=off takes both to the Go code.
func TestMatchKernelFollowsGODEBUG(t *testing.T) {
	for _, c := range []struct {
		godebug string
		k, mk   int
	}{
		{"cpu.avx512f=off", detectKernel(), matchPerEntry},
		{"cpu.sha=off", kernelGeneric, detectMatchKernel()},
		{"cpu.all=off", kernelGeneric, matchPerEntry},
	} {
		out := cputest.RunUnder(t, c.godebug, "^TestReportMatchKernel$")
		if want := "kernel=" + kernelPair(c.k, c.mk) + "\n"; !strings.Contains(out, want) {
			t.Errorf("GODEBUG=%s: child reports\n%s\nwant %q", c.godebug, out, want)
		}
	}
}
