package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// NewBloom makes one filter as newBlooms makes a segment's.
func NewBloom(n, bitsPerKey int) *Bloom { return &newBlooms(1, n, bitsPerKey)[0] }

// modAdd and modMayContain are Add and MayContain as first written, with
// each probe reduced by %: the reference the Barrett reduction must
// reproduce bit for bit.
func modAdd(words []uint64, m uint64, k int, h uint64) {
	h2 := h*bloomMix | 1
	for i := 0; i < k; i++ {
		bit := h % m
		words[bit/64] |= 1 << (bit % 64)
		h += h2
	}
}

func modMayContain(words []uint64, m uint64, k int, h uint64) bool {
	h2 := h*bloomMix | 1
	for i := 0; i < k; i++ {
		bit := h % m
		if words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h += h2
	}
	return true
}

// edgeHashes are the hashes a reduction gets wrong first: 0, small
// values, values near 2^64, and multiples of m and their neighbours.
func edgeHashes(m uint64) []uint64 {
	hs := []uint64{0, 1, 2, 63, 64, m - 1, m, m + 1, 2*m - 1, 2 * m}
	for d := uint64(0); d < 4; d++ {
		top := ^uint64(0) - d
		hs = append(hs, top, top/m*m, top/m*m-1, top/m*m-m)
	}
	return hs
}

// checkMatchesModulo adds keys to a filter of n keys at bitsPerKey bits
// and to a reference one, and fails t unless every probe, every word and
// every membership answer agree.
func checkMatchesModulo(t *testing.T, n, bitsPerKey int, keys []uint64) {
	t.Helper()
	b := NewBloom(n, bitsPerKey)
	ref := make([]uint64, len(b.bits))
	for _, h := range keys {
		if got, want := b.bit(h), h%b.m; got != want {
			t.Fatalf("m %d: bit(%d) = %d, want %d", b.m, h, got, want)
		}
		b.Add(h)
		modAdd(ref, b.m, b.k, h)
	}
	if !slices.Equal(b.bits, ref) {
		t.Fatalf("n %d, %d bits/key (m %d, k %d): words differ from the %% reference", n, bitsPerKey, b.m, b.k)
	}
	for _, h := range keys {
		for _, p := range []uint64{h, h + 1, h ^ 0x5555, ^h} {
			if got, want := b.MayContain(p), modMayContain(ref, b.m, b.k, p); got != want {
				t.Fatalf("n %d, %d bits/key: MayContain(%d) = %v, the %% reference says %v", n, bitsPerKey, p, got, want)
			}
		}
	}
}

// TestBloomMatchesModulo: over random sizes, power-of-two sizes and every
// probe count up to 8, Add and MayContain set and test exactly the bits
// of the % reference, for hashes at 0, small, near 2^64 and at random.
func TestBloomMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	keys := func(m uint64) []uint64 {
		hs := edgeHashes(m)
		for i := 0; i < 200; i++ {
			hs = append(hs, rng.Uint64(), uint64(rng.Intn(1000)), ^uint64(rng.Intn(1000)))
		}
		return hs
	}
	for i := 0; i < 500; i++ {
		n, bitsPerKey := 1+rng.Intn(5000), 1+rng.Intn(16)
		checkMatchesModulo(t, n, bitsPerKey, keys(NewBloom(n, bitsPerKey).m))
	}
	for j := 6; j <= 20; j++ { // m = 2^j: n·bits/key a power of two
		for _, bitsPerKey := range []int{1, 2, 4, 8, 16} {
			if n := 1 << j / bitsPerKey; n >= 1 {
				checkMatchesModulo(t, n, bitsPerKey, keys(1<<j))
			}
		}
	}
	for bitsPerKey := 1; bitsPerKey <= 16; bitsPerKey++ {
		if k := NewBloom(10, bitsPerKey).k; k < 1 || k > 8 {
			t.Fatalf("%d bits/key: k = %d", bitsPerKey, k)
		}
	}
	// The reduction itself, at bit counts no filter here reaches.
	for _, m := range []uint64{64, 128, 192, 1 << 32, 1<<32 + 64, 1 << 62, 1<<63 + 64, ^uint64(0) &^ 63} {
		b := &Bloom{m: m, mu: ^uint64(0) / m}
		for _, h := range append(edgeHashes(m), rng.Uint64(), rng.Uint64()) {
			if got, want := b.bit(h), h%m; got != want {
				t.Fatalf("m %d: bit(%d) = %d, want %d", m, h, got, want)
			}
		}
	}
}

// FuzzBloomMatchesModulo: for any size, any hash and any bit count, the
// filter agrees with the % reference.
func FuzzBloomMatchesModulo(f *testing.F) {
	f.Add(uint16(1000), uint8(10), uint64(0), uint64(64))
	f.Add(uint16(1), uint8(1), ^uint64(0), ^uint64(0))
	f.Add(uint16(4096), uint8(16), uint64(1)<<63, uint64(1)<<40)
	f.Fuzz(func(t *testing.T, n uint16, bitsPerKey uint8, h, m uint64) {
		keys := append(edgeHashes(NewBloom(int(n), int(bitsPerKey%32)).m), h, h*bloomMix, ^h)
		checkMatchesModulo(t, int(n), int(bitsPerKey%32), keys)
		m = max(m&^63, 64)
		b := &Bloom{m: m, mu: ^uint64(0) / m}
		for _, x := range append(edgeHashes(m), h, ^h) {
			if got, want := b.bit(x), x%m; got != want {
				t.Fatalf("m %d: bit(%d) = %d, want %d", m, x, got, want)
			}
		}
	})
}
