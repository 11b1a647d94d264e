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
// the rules. Test binaries poison released cells and check every release.

// Cell is an element type the pool recycles; the 8-byte kinds share lists.
type Cell interface {
	int64 | float64 | uint64 | Loc | int32 | string
}

// Class c holds arrays of 2^c cells; the pool serves requests up to
// 2^maxClass cells.
const minClass, maxClass = 4, 31

var (
	// pool holds free arrays by element size (int32, 8-byte and string
	// cells: size / 8) and class, as pointers to their first cells.
	pool struct {
		sync.Mutex
		free [3][maxClass + 1][]unsafe.Pointer
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

var releasedString = "tuple: read after release"

// lock locks the pool and returns T's free lists. Its first use after a
// garbage collection empties them all: what was free at that collection
// goes to the next one.
func lock[T Cell]() *[maxClass + 1][]unsafe.Pointer {
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
		w := weak.Make(new([4]uintptr))
		epoch.Store(&w)
	}
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
	} else if ok {
		clear(s) // let go of the strings' bytes
	} else if checked {
		poison(unsafe.Slice((*byte)(p), n*int(unsafe.Sizeof(s[0]))), releasedByte)
	}
	c := bits.Len(uint(n)) - 1
	lists := lock[T]()
	lists[c] = append(lists[c], p)
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
