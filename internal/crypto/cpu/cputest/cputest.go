// Package cputest runs a test binary again under a GODEBUG setting, for the
// tests that hold the kernels a package chooses to GODEBUG's cpu.<name>=off
// values. Only tests import it.
package cputest

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// RunUnder runs this test binary again, verbose and uncached, with
// GODEBUG=godebug and -test.run=run, and returns the child's output. It
// skips t when GODEBUG already sets cpu options, which the child would
// inherit, and fails t when the child fails.
func RunUnder(t testing.TB, godebug, run string) string {
	t.Helper()
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG already sets cpu options")
	}
	cmd := exec.Command(os.Args[0], "-test.run="+run, "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GODEBUG=%s: %v\n%s", godebug, err, out)
	}
	return string(out)
}
