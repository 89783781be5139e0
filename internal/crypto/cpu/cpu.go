// Package cpu reports the x86 instruction-set extensions that the
// repository's assembly kernels choose by: internal/crypto/mont's
// MULX/ADCX/ADOX loop and AVX-512 IFMA kernel, and internal/crypto/search's
// SHA-NI compression and 16-lane AVX-512 match. It reads them once, at init, from CPUID and XGETBV, as
// the standard library's internal/cpu does, and then applies GODEBUG's
// cpu.<name>=off settings as internal/cpu does, so that a binary run with
// GODEBUG=cpu.adx=off (or cpu.all=off) takes the same fallback kernels here
// as in the standard library. Off amd64, and under -tags purego, every field
// is false: no kernel there is assembly.
package cpu

import "strings"

var (
	// X86HasADX and X86HasBMI2 report ADCX/ADOX and MULX.
	X86HasADX, X86HasBMI2 bool
	// X86HasAVX reports AVX with the OS saving the YMM state (XGETBV).
	X86HasAVX bool
	// X86HasSHA, X86HasSSSE3 and X86HasSSE41 report the SHA extensions,
	// SSSE3 and SSE4.1.
	X86HasSHA, X86HasSSSE3, X86HasSSE41 bool
	// X86HasAVX512F and X86HasAVX512IFMA report the AVX-512 foundation and
	// its 52-bit integer multiply-add (VPMADD52LUQ/VPMADD52HUQ), each with
	// the OS saving the opmask and ZMM state (XCR0 bits 1, 2 and 5-7). A
	// kernel that needs IFMA checks X86HasAVX512F too: GODEBUG has no name
	// for IFMA, and cpu.avx512f=off turns off every AVX-512 kernel.
	X86HasAVX512F, X86HasAVX512IFMA bool
)

// options are the features GODEBUG can turn off, under the names the
// standard library's internal/cpu gives them.
var options = []struct {
	name    string
	feature *bool
}{
	{"adx", &X86HasADX},
	{"bmi2", &X86HasBMI2},
	{"avx", &X86HasAVX},
	{"sha", &X86HasSHA},
	{"ssse3", &X86HasSSSE3},
	{"sse41", &X86HasSSE41},
	{"avx512f", &X86HasAVX512F},
}

// processOptions applies the cpu.<name>=on|off fields of a GODEBUG value to
// the detected features as internal/cpu's processOptions does: cpu.all
// names every option, a later field overrides an earlier one, and "on"
// cannot enable what the CPU lacks. Other fields, names and values are
// ignored; the runtime already warns about the ones it does not know.
func processOptions(env string) {
	off := make([]bool, len(options))
	for _, field := range strings.Split(env, ",") {
		key, value, ok := strings.Cut(field, "=")
		name, isCPU := strings.CutPrefix(key, "cpu.")
		if !ok || !isCPU || (value != "on" && value != "off") {
			continue
		}
		for i, o := range options {
			if name == "all" || name == o.name {
				off[i] = value == "off"
			}
		}
	}
	for i, o := range options {
		if off[i] {
			*o.feature = false
		}
	}
}
