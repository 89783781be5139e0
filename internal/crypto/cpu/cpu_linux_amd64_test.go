//go:build linux && amd64 && !purego

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestFeaturesMatchCPUInfo holds each feature bit to the flag Linux reports
// for the same extension in /proc/cpuinfo. Linux lists avx only when the
// OS saves the YMM registers, which is the XGETBV condition X86HasAVX adds,
// and the avx512 flags only when it saves the opmask and ZMM state. A run
// under GODEBUG=cpu.* is skipped: there the bits differ on purpose.
func TestFeaturesMatchCPUInfo(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG sets cpu options")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{
		{"adx", X86HasADX},
		{"bmi2", X86HasBMI2},
		{"avx", X86HasAVX},
		{"sha_ni", X86HasSHA},
		{"ssse3", X86HasSSSE3},
		{"sse4_1", X86HasSSE41},
		{"avx512f", X86HasAVX512F},
		{"avx512ifma", X86HasAVX512IFMA},
	} {
		if c.got != flags[c.flag] {
			t.Errorf("%s: CPUID says %v, /proc/cpuinfo %v", c.flag, c.got, flags[c.flag])
		}
	}
}
