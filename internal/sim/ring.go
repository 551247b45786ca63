package sim

// Ring is a first-in first-out queue of values in a power-of-two
// circular buffer that doubles when full, so a queue that has reached
// its high-water mark pushes and pops without allocating. The zero
// Ring is empty and ready to use. Front, Back and PopFront require a
// non-empty ring.
type Ring[T any] struct {
	buf []T
	off int // buf index of the front
	n   int // values queued
}

// Len returns the number of values queued.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.off+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Front returns the oldest value in place.
func (r *Ring[T]) Front() *T { return &r.buf[r.off] }

// Back returns the newest value in place.
func (r *Ring[T]) Back() *T { return &r.buf[(r.off+r.n-1)&(len(r.buf)-1)] }

// PopFront removes and returns the oldest value. Its slot is zeroed,
// so the ring keeps nothing it has handed out alive.
func (r *Ring[T]) PopFront() T {
	p := &r.buf[r.off]
	v := *p
	var zero T
	*p = zero
	r.off = (r.off + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer (16 slots minimum), unwrapping the queue to
// the front of the new one.
func (r *Ring[T]) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 16
	}
	//tlcvet:allow hotalloc — geometric doubling; amortized O(1) per push and quiescent once the ring reaches its high-water mark
	buf := make([]T, n)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.off+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.off = 0
}
