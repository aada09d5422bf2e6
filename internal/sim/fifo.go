package sim

import "mproxy/internal/trace"

// FIFO is a typed unbounded queue of T whose getters are run-to-completion
// Tasks: the communication agents' work queues, which see one item per
// simulated message, so items are never boxed into `any`. The trace
// stream carries one KEnqueue per Put and one KDequeue per successful
// TryGet, Arg being the queue length after the operation.
//
// Storage is a head-indexed ring over one growing slice: TryGet clears the
// vacated slot (items must be GC-able once consumed) and advances head,
// and the slice resets to its start whenever the queue drains, so a
// steady-state producer/consumer pair reuses the same backing array
// forever instead of re-allocating as `items = items[1:]` walks the
// capacity away.
type FIFO[T any] struct {
	eng     *Engine
	name    string
	items   []T
	head    int
	getters []*Task
}

// NewFIFO returns an empty typed queue whose enqueue/dequeue operations
// appear in the trace stream under the given name.
func NewFIFO[T any](e *Engine, name string) *FIFO[T] {
	return &FIFO[T]{eng: e, name: name}
}

// Name returns the queue's trace name.
func (q *FIFO[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Put appends x and wakes the first parked getter, if any.
func (q *FIFO[T]) Put(x T) {
	q.items = append(q.items, x)
	q.eng.Emit(trace.KEnqueue, q.name, int64(q.Len()))
	if len(q.getters) > 0 {
		// Shift instead of reslicing: q.getters[1:] would walk the backing
		// array's capacity away and force a fresh allocation on every
		// park/wake cycle of a steady-state consumer.
		t := q.getters[0]
		copy(q.getters, q.getters[1:])
		q.getters[len(q.getters)-1] = nil
		q.getters = q.getters[:len(q.getters)-1]
		q.eng.WakeTask(t)
	}
}

// ParkGetter blocks t as a getter, running k at the next Put. k must
// re-check the queue with TryGet: another getter woken by the same Put
// may have taken the item first.
func (q *FIFO[T]) ParkGetter(t *Task, k func()) {
	q.getters = append(q.getters, t)
	t.Park(k)
}

// TryGet removes and returns the head item without blocking. It returns
// the zero value and false if the queue is empty.
func (q *FIFO[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

func (q *FIFO[T]) take() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.eng.Emit(trace.KDequeue, q.name, int64(q.Len()))
	return x
}
