//go:build amd64 && !purego

package mont

import (
	"strings"
	"testing"

	"repro/internal/crypto/cpu/cputest"
)

// TestKernelFollowsGODEBUG runs this test binary again under GODEBUG values
// that turn features off and holds the kernel the child chose to the one
// they leave: cpu.avx512f=off takes an IFMA CPU to the ADX kernel, and
// cpu.adx=off, cpu.bmi2=off and cpu.all=off take any CPU to the Go loop.
func TestKernelFollowsGODEBUG(t *testing.T) {
	for _, c := range []struct {
		godebug string
		want    int
	}{
		{"cpu.avx512f=off", min(detectKernel(), kernelADX)},
		{"cpu.adx=off", kernelGo},
		{"cpu.bmi2=off", kernelGo},
		{"cpu.all=off", kernelGo},
	} {
		out := cputest.RunUnder(t, c.godebug, "^TestReportKernel$")
		if want := "kernel=" + kernelNames[c.want] + "\n"; !strings.Contains(out, want) {
			t.Errorf("GODEBUG=%s: child reports\n%s\nwant %q", c.godebug, out, want)
		}
	}
}
