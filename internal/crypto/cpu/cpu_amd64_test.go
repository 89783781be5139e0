//go:build amd64 && !purego

package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/crypto/cpu/cputest"
)

// featureLine lists every feature bit by its GODEBUG name.
func featureLine() string {
	var b strings.Builder
	b.WriteString("features:")
	for _, o := range options {
		fmt.Fprintf(&b, " %s=%v", o.name, *o.feature)
	}
	fmt.Fprintf(&b, " avx512ifma=%v", X86HasAVX512IFMA)
	return b.String()
}

// TestReportFeatures logs the feature bits of this process, for
// TestGODEBUGTurnsFeaturesOff to read from a child.
func TestReportFeatures(t *testing.T) { t.Log(featureLine()) }

// TestGODEBUGTurnsFeaturesOff runs this test binary again under GODEBUG
// values and holds the features the child reports to this process's with
// the named ones turned off: one name, two, cpu.all, cpu.all with one name
// turned back on, a name turned off and on again, and a name internal/cpu
// does not know, which changes nothing.
func TestGODEBUGTurnsFeaturesOff(t *testing.T) {
	var all []string
	for _, o := range options {
		all = append(all, o.name)
	}
	for _, c := range []struct {
		godebug string
		off     []string
	}{
		{"cpu.adx=off", []string{"adx"}},
		{"cpu.sha=off,cpu.avx512f=off", []string{"sha", "avx512f"}},
		{"cpu.all=off", all},
		{"cpu.all=off,cpu.bmi2=on", []string{"adx", "avx", "sha", "ssse3", "sse41", "avx512f"}},
		{"cpu.avx512f=off,cpu.avx512f=on", nil},
		{"cpu.avx512ifma=off", nil},
	} {
		saved := make([]bool, len(options))
		for i, o := range options {
			saved[i] = *o.feature
		}
		processOptions(c.godebug)
		// A feature named off is off; any other, and IFMA, which has no
		// name, keeps the value detected here.
		for i, o := range options {
			if *o.feature != (saved[i] && !slices.Contains(c.off, o.name)) {
				t.Errorf("processOptions(%q): %s = %v", c.godebug, o.name, *o.feature)
			}
		}
		want := featureLine()
		for i, o := range options {
			*o.feature = saved[i]
		}

		out := cputest.RunUnder(t, c.godebug, "^TestReportFeatures$")
		if !strings.Contains(out, want+"\n") {
			t.Errorf("GODEBUG=%s: child reports\n%s\nwant %q", c.godebug, out, want)
		}
	}
}
