package stream

import "sync"

// Numeric scratch arenas shared by the epoch hot path. They follow
// the same ownership rule as the tuple arena (pool.go): a borrowed buffer is
// only valid until Release, and the borrower must overwrite its contents —
// buffers come back with whatever the previous user left in them.

// FloatBuffer is a reusable float64 slice borrowed with BorrowFloats.
type FloatBuffer struct {
	Vals []float64
}

// BoolBuffer is a reusable bool slice borrowed with BorrowBools.
type BoolBuffer struct {
	Vals []bool
}

var (
	floatPool = sync.Pool{New: func() interface{} {
		return &FloatBuffer{Vals: make([]float64, defaultBufferCap)}
	}}
	boolPool = sync.Pool{New: func() interface{} {
		return &BoolBuffer{Vals: make([]bool, defaultBufferCap)}
	}}
)

// BorrowFloats returns a buffer with Vals of length n (contents arbitrary).
func BorrowFloats(n int) *FloatBuffer {
	b := floatPool.Get().(*FloatBuffer)
	if cap(b.Vals) < n {
		b.Vals = make([]float64, n)
	} else {
		b.Vals = b.Vals[:n]
	}
	return b
}

// Release returns the buffer to the arena.
func (b *FloatBuffer) Release() {
	if b != nil {
		floatPool.Put(b)
	}
}

// BorrowBools returns a buffer with Vals of length n (contents arbitrary).
func BorrowBools(n int) *BoolBuffer {
	b := boolPool.Get().(*BoolBuffer)
	if cap(b.Vals) < n {
		b.Vals = make([]bool, n)
	} else {
		b.Vals = b.Vals[:n]
	}
	return b
}

// Release returns the buffer to the arena.
func (b *BoolBuffer) Release() {
	if b != nil {
		boolPool.Put(b)
	}
}
