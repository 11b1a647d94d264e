package tuple

import "testing"

func BenchmarkValueHash(b *testing.B) {
	v := Str("some-moderately-long-join-key")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Hash()
	}
}

func BenchmarkCompareInt(b *testing.B) {
	x, y := Int(42), Int(43)
	for i := 0; i < b.N; i++ {
		_ = Compare(x, y)
	}
}
