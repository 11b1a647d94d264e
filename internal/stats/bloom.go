package stats

import "math/bits"

// Bloom is a Bloom filter over 64-bit value hashes (tuple.Value.Hash),
// probed with double hashing. It answers "might this exact value occur
// in the segment?" — a false positive only costs a fetch that the zone
// map could not rule out anyway; a false negative is impossible, so
// skipping on a negative answer is always result-safe.
type Bloom struct {
	bits []uint64
	m    uint64 // bit count, a multiple of 64
	mu   uint64 // ^uint64(0) / m, which reduces a hash mod m without a divide
	k    int    // probes per key
}

// bloomMix derives the second hash for double hashing (the golden-ratio
// multiplier decorrelates it from the first).
const bloomMix = 0x9E3779B97F4A7C15

// newBlooms makes count filters, sharing two arrays, each sized for n keys
// at bitsPerKey bits each. The probe count follows the standard
// k ≈ 0.69·bits/key optimum, clamped to [1, 8].
func newBlooms(count, n, bitsPerKey int) []Bloom {
	n, bitsPerKey = max(n, 1), max(bitsPerKey, 1)
	m := max((uint64(n)*uint64(bitsPerKey)+63)&^63, 64)
	k := min(max(int(float64(bitsPerKey)*0.69), 1), 8)
	words := make([]uint64, uint64(count)*m/64)
	blooms := make([]Bloom, count)
	for i := range blooms {
		w := words[uint64(i)*m/64 : uint64(i+1)*m/64 : uint64(i+1)*m/64]
		blooms[i] = Bloom{bits: w, m: m, mu: ^uint64(0) / m, k: k}
	}
	return blooms
}

// bit is h % m by Barrett reduction: the quotient h·mu/2^64 is the true
// one or one less for every 64-bit h, so one conditional subtraction ends
// it. (A multiply-shift range reduction would set other bits.)
func (b *Bloom) bit(h uint64) uint64 {
	q, _ := bits.Mul64(h, b.mu)
	r := h - q*b.m
	if r >= b.m {
		r -= b.m
	}
	return r
}

// Add inserts a value hash.
func (b *Bloom) Add(h uint64) {
	h2 := h*bloomMix | 1
	for i := 0; i < b.k; i++ {
		bit := b.bit(h)
		b.bits[bit/64] |= 1 << (bit % 64)
		h += h2
	}
}

// MayContain reports whether the hash might have been added. False
// means definitely absent.
func (b *Bloom) MayContain(h uint64) bool {
	h2 := h*bloomMix | 1
	for i := 0; i < b.k; i++ {
		bit := b.bit(h)
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h += h2
	}
	return true
}

// Bits returns the filter's size in bits.
func (b *Bloom) Bits() int { return int(b.m) }
