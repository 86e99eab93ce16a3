package isa

// Committed-trace digests. The pipeline fingerprints the committed-PC
// stream and the committed memory-access stream (address<<1, plus 1 for a
// store) with these, and the functional emulator computes the same two, so
// a prefix of the two machines' runs can be compared without replaying it.

// DigestSeed is the FNV-64 offset basis every trace digest starts from.
const DigestSeed = 1469598103934665603

// DigestMix folds v into the FNV-1a digest h, least-significant byte first.
// Fully unrolled: the pipeline runs it once per committed op plus once per
// committed memory access, and the byte loop was a measurable slice of
// retire.
func DigestMix(h, v uint64) uint64 {
	const prime = 1099511628211
	h = (h ^ (v & 0xFF)) * prime
	h = (h ^ ((v >> 8) & 0xFF)) * prime
	h = (h ^ ((v >> 16) & 0xFF)) * prime
	h = (h ^ ((v >> 24) & 0xFF)) * prime
	h = (h ^ ((v >> 32) & 0xFF)) * prime
	h = (h ^ ((v >> 40) & 0xFF)) * prime
	h = (h ^ ((v >> 48) & 0xFF)) * prime
	h = (h ^ (v >> 56)) * prime
	return h
}
