//go:build amd64 && !purego

package mont

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestReportKernel logs the kernel this process chose, for
// TestKernelFollowsGODEBUG to read from a child.
func TestReportKernel(t *testing.T) { t.Log("kernel=" + kernelNames[kernel]) }

// TestKernelFollowsGODEBUG runs this test binary again under GODEBUG values
// that turn features off and holds the kernel the child chose to the one
// they leave: cpu.avx512f=off takes an IFMA CPU to the ADX kernel, and
// cpu.adx=off, cpu.bmi2=off and cpu.all=off take any CPU to the MULQ loop.
func TestKernelFollowsGODEBUG(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG already sets cpu options")
	}
	for _, c := range []struct {
		godebug string
		want    int
	}{
		{"cpu.avx512f=off", min(detectKernel(), kernelADX)},
		{"cpu.adx=off", kernelMULQ},
		{"cpu.bmi2=off", kernelMULQ},
		{"cpu.all=off", kernelMULQ},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestReportKernel$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+c.godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", c.godebug, err, out)
		}
		if want := "kernel=" + kernelNames[c.want] + "\n"; !strings.Contains(string(out), want) {
			t.Errorf("GODEBUG=%s: child reports\n%s\nwant %q", c.godebug, out, want)
		}
	}
}
