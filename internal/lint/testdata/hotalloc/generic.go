package hotalloc

// queue is generic: the walk reaches its methods through an
// instantiation, whose type arguments differ from the declaration's.
type queue[T any] struct {
	buf []T
}

func (q *queue[T]) put(v T) {
	q.buf = make([]T, 1) // want hotalloc "make allocates"
	q.buf[0] = v
}

// Enqueue is a hot entry point that calls a method of an instantiated
// generic type.
//
//tlcvet:hotpath fixture generic call
func Enqueue(q *queue[int], v int) {
	q.put(v)
}
