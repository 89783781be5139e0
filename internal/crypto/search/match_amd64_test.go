//go:build amd64 && !purego

package search

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestReportMatchKernel logs the kernels this process chose, for
// TestMatchKernelFollowsGODEBUG to read from a child.
func TestReportMatchKernel(t *testing.T) { t.Log("kernel=" + kernelPair(kernel, matchKernel)) }

// TestMatchKernelFollowsGODEBUG runs this test binary again under GODEBUG
// values that turn features off and holds the kernels the child chose to
// the ones they leave. The two choices are apart: cpu.avx512f=off keeps
// compress's kernel and takes Match to the per-entry scan, cpu.sha=off
// keeps Match's kernel and takes compress to the Go function, and
// cpu.all=off takes both to the Go code.
func TestMatchKernelFollowsGODEBUG(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG already sets cpu options")
	}
	for _, c := range []struct {
		godebug string
		k, mk   int
	}{
		{"cpu.avx512f=off", detectKernel(), matchPerEntry},
		{"cpu.sha=off", kernelGeneric, detectMatchKernel()},
		{"cpu.all=off", kernelGeneric, matchPerEntry},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestReportMatchKernel$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+c.godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", c.godebug, err, out)
		}
		if want := "kernel=" + kernelPair(c.k, c.mk) + "\n"; !strings.Contains(string(out), want) {
			t.Errorf("GODEBUG=%s: child reports\n%s\nwant %q", c.godebug, out, want)
		}
	}
}
