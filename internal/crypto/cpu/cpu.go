// Package cpu reports the x86 instruction-set extensions that the
// repository's assembly kernels choose by: internal/crypto/mont's
// MULX/ADCX/ADOX loop and internal/crypto/search's SHA-NI compression. It
// reads them once, at init, from CPUID and XGETBV, as the standard
// library's internal/cpu does. Off amd64, and under -tags purego, every
// field is false: no kernel there is assembly.
package cpu

var (
	// X86HasADX and X86HasBMI2 report ADCX/ADOX and MULX.
	X86HasADX, X86HasBMI2 bool
	// X86HasAVX reports AVX with the OS saving the YMM state (XGETBV).
	X86HasAVX bool
	// X86HasSHA, X86HasSSSE3 and X86HasSSE41 report the SHA extensions,
	// SSSE3 and SSE4.1.
	X86HasSHA, X86HasSSSE3, X86HasSSE41 bool
)
