package tuple

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"
)

// The process's one pool of query working memory; docs/architecture.md has
// the rules. Test binaries poison released cells and batch shells and check
// every release.

// Cell is an element type the pool recycles; the 8-byte kinds share lists.
type Cell interface {
	int64 | float64 | uint64 | Loc | int32 | string | Vector
}

// Class c holds arrays of 2^c cells; the pool serves requests up to
// 2^maxClass cells.
const minClass, maxClass = 4, 31

var (
	// pool holds free arrays by element size / 8 (int32 cells at 0, Vector
	// cells at 9) and class, as pointers to their first cells, and released
	// Batch shells.
	pool struct {
		sync.Mutex
		free   [10][maxClass + 1][]unsafe.Pointer
		shells []*Batch
	}
	// epoch points at a marker held only weakly, which reads nil once a
	// collection has run.
	epoch   atomic.Pointer[weak.Pointer[[4]uintptr]]
	checked = testing.Testing() // poison and check releases
	// lent holds, in a test binary, the arrays Take handed out that are
	// not released since, by address.
	lent   = map[uintptr]weak.Pointer[byte]{}
	lentMu sync.Mutex
)

// The poison of released cells: every byte of a numeric one, or the header
// of a string.
const releasedByte = 0xDE

var (
	releasedString = "tuple: read after release"
	// releasedSchema is a released shell's schema: the column its batch
	// would be read through names what went wrong.
	releasedSchema = NewSchema(Column{Name: "tuple: batch used after Release", Kind: KindString})
)

// lockPool locks the pool. Its first use after a garbage collection empties
// every list: what was free at that collection goes to the next one.
func lockPool() {
	e := epoch.Load()
	stale := e == nil || e.Value() == nil // not under the lock: it may wait for the collector
	pool.Lock()
	if stale && epoch.Load() == e {
		for k := range pool.free {
			for c, free := range pool.free[k] {
				clear(free)
				pool.free[k][c] = free[:0]
			}
		}
		clear(pool.shells)
		pool.shells = pool.shells[:0]
		w := weak.Make(new([4]uintptr))
		epoch.Store(&w)
	}
}

// lock locks the pool and returns T's free lists.
func lock[T Cell]() *[maxClass + 1][]unsafe.Pointer {
	lockPool()
	var z T
	return &pool.free[unsafe.Sizeof(z)/8]
}

// Take returns n cells, of any content, in an array of their class's
// capacity from the pool, or newly allocated when none is free.
func Take[T Cell](n int) []T {
	c := max(bits.Len(uint(n-1)), minClass)
	if n <= 0 || c > maxClass {
		return make([]T, n)
	}
	lists := lock[T]()
	var s []T
	if free := lists[c]; len(free) > 0 {
		p := free[len(free)-1]
		free[len(free)-1], lists[c] = nil, free[:len(free)-1]
		pool.Unlock()
		s = unsafe.Slice((*T)(p), 1<<c)[:n]
	} else {
		pool.Unlock()
		s = make([]T, n, 1<<c) // not under the lock: it may assist the collector
	}
	if checked {
		track(unsafe.Pointer(unsafe.SliceData(s)), true)
	}
	return s
}

// Resize returns s with length n, or n cells from the pool for s (released).
func Resize[T Cell](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	Release(s)
	return Take[T](n)
}

// Release hands s's whole array back to the pool when its capacity is a
// class's; nothing else may hold its cells (not a carved column, not a
// view). In a test binary releasing an array that Take did not hand out,
// or one already released, panics.
func Release[T Cell](s []T) {
	n := cap(s)
	if n < 1<<minClass || n&(n-1) != 0 || n > 1<<maxClass {
		return
	}
	s = s[:n]
	p := unsafe.Pointer(&s[0])
	if checked {
		track(p, false)
	}
	if str, ok := any(&s[0]).(*string); ok && checked {
		poison(unsafe.Slice(str, n), releasedString)
	} else if _, isVec := any(&s[0]).(*Vector); ok || isVec {
		clear(s) // let go of the strings' bytes, or the vectors' arrays
	} else if checked {
		poison(unsafe.Slice((*byte)(p), n*int(unsafe.Sizeof(s[0]))), releasedByte)
	}
	c := bits.Len(uint(n)) - 1
	lists := lock[T]()
	lists[c] = append(lists[c], p)
	pool.Unlock()
}

// shell returns a Batch shell with width empty columns: a released one from
// the pool, or a new one. In a test binary a pooled shell must still hold
// the poison its release left, or it panics: something used its batch after
// Release.
func shell(width int) *Batch {
	lockPool()
	var b *Batch
	if n := len(pool.shells); n > 0 {
		b, pool.shells[n-1], pool.shells = pool.shells[n-1], nil, pool.shells[:n-1]
	}
	pool.Unlock()
	if b == nil {
		return &Batch{cols: make([]Vector, width)}
	}
	if checked && (b.schema != releasedSchema || b.n != 0) {
		panic("tuple: a Batch was used after Release")
	}
	b.schema = nil
	if cap(b.cols) < width {
		b.cols = make([]Vector, width)
	}
	b.cols = b.cols[:width]
	return b
}

// releaseShell empties b, keeping its columns' capacity, and hands it to
// the pool. In a test binary its schema is the poison.
func releaseShell(b *Batch) {
	cols := b.cols[:cap(b.cols)]
	clear(cols)
	*b = Batch{cols: cols[:0]}
	if checked {
		b.schema = releasedSchema
	}
	lockPool()
	pool.shells = append(pool.shells, b)
	pool.Unlock()
}

// track records the array at p handed out or, releasing it, panics unless
// it is out. An array dropped unreleased leaves its record behind, and the
// allocator may give its address to another: the weak pointer tells them
// apart.
func track(p unsafe.Pointer, out bool) {
	lentMu.Lock()
	defer lentMu.Unlock()
	switch {
	case out:
		lent[uintptr(p)] = weak.Make((*byte)(p))
	case lent[uintptr(p)].Value() == nil:
		panic("tuple: released an array that is not out: released twice, or never handed out")
	default:
		delete(lent, uintptr(p))
	}
}

func poison[E any](cells []E, x E) {
	for i := range cells {
		cells[i] = x
	}
}
