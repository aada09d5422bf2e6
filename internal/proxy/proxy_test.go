package proxy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommandQueueFIFO(t *testing.T) {
	q := NewCommandQueue[any](0, 4)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v, ok := q.Dequeue()
		if !ok || v.(int) != i {
			t.Fatalf("dequeue %d: %v %v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue")
	}
}

func TestCommandQueueFull(t *testing.T) {
	q := NewCommandQueue[any](0, 2)
	_ = q.Enqueue(0, 1)
	_ = q.Enqueue(0, 2)
	if err := q.Enqueue(0, 3); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if q.FullHits() != 1 {
		t.Fatalf("fullHits = %d", q.FullHits())
	}
	// Draining one entry frees a slot.
	q.Dequeue()
	if err := q.Enqueue(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCommandQueueWrapAround(t *testing.T) {
	q := NewCommandQueue[any](0, 3)
	next := 0
	for round := 0; round < 10; round++ {
		_ = q.Enqueue(0, round*2)
		_ = q.Enqueue(0, round*2+1)
		for i := 0; i < 2; i++ {
			v, ok := q.Dequeue()
			if !ok || v.(int) != next {
				t.Fatalf("round %d: got %v want %d", round, v, next)
			}
			next++
		}
	}
	if q.Enqueued() != 20 {
		t.Fatalf("enqueued = %d", q.Enqueued())
	}
}

func TestForeignProducerFaults(t *testing.T) {
	q := NewCommandQueue[any](7, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign producer did not fault")
		}
	}()
	_ = q.Enqueue(8, "intruder")
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCommandQueue[any](0, 0)
}

func TestScannerRoundRobin(t *testing.T) {
	s := NewScanner[any]()
	var qs []*CommandQueue[any]
	for i := 0; i < 3; i++ {
		q := NewCommandQueue[any](i, 8)
		idx := s.Register(q)
		if idx != i {
			t.Fatalf("index = %d", idx)
		}
		qs = append(qs, q)
	}
	// Two commands in each queue; round-robin must interleave them.
	for i, q := range qs {
		_ = q.Enqueue(i, i*10)
		_ = q.Enqueue(i, i*10+1)
		s.MarkNonEmpty(i)
	}
	var order []int
	for {
		cmd, _, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, cmd.(int))
	}
	want := []int{0, 10, 20, 1, 11, 21}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScannerEmpty(t *testing.T) {
	s := NewScanner[any]()
	if _, _, ok := s.Next(); ok {
		t.Fatal("empty scanner produced a command")
	}
	q := NewCommandQueue[any](0, 2)
	s.Register(q)
	if _, _, ok := s.Next(); ok {
		t.Fatal("scanner with empty queue produced a command")
	}
}

func TestScannerStaleBit(t *testing.T) {
	s := NewScanner[any]()
	q := NewCommandQueue[any](0, 4)
	s.Register(q)
	_ = q.Enqueue(0, 1)
	s.MarkNonEmpty(0)
	// Consume behind the scanner's back; the bit is now stale.
	q.Dequeue()
	if _, _, ok := s.Next(); ok {
		t.Fatal("scanner returned a phantom command")
	}
}

func TestScannerBitVectorSavesHeadChecks(t *testing.T) {
	// 100 queues, only one non-empty: head checks must not scale with the
	// number of registered queues.
	s := NewScanner[any]()
	var target *CommandQueue[any]
	for i := 0; i < 100; i++ {
		q := NewCommandQueue[any](i, 2)
		s.Register(q)
		if i == 77 {
			target = q
		}
	}
	_ = target.Enqueue(77, "cmd")
	s.MarkNonEmpty(77)
	cmd, idx, ok := s.Next()
	if !ok || idx != 77 || cmd != "cmd" {
		t.Fatalf("got %v %d %v", cmd, idx, ok)
	}
	if s.HeadChecks() != 1 {
		t.Fatalf("head checks = %d, want 1", s.HeadChecks())
	}
	if s.Probes() > 4 {
		t.Fatalf("probes = %d, want <= 4 word probes", s.Probes())
	}
}

func TestScannerManyQueuesFairness(t *testing.T) {
	// Every queue keeps producing; consumption counts must stay balanced
	// (no starvation) thanks to round-robin order.
	const nq = 10
	s := NewScanner[any]()
	qs := make([]*CommandQueue[any], nq)
	for i := range qs {
		qs[i] = NewCommandQueue[any](i, 4)
		s.Register(qs[i])
	}
	counts := make([]int, nq)
	for round := 0; round < 100; round++ {
		for i, q := range qs {
			if q.Enqueue(i, i) == nil {
				s.MarkNonEmpty(i)
			}
		}
		for k := 0; k < nq; k++ {
			if cmd, _, ok := s.Next(); ok {
				counts[cmd.(int)]++
			}
		}
	}
	for i, c := range counts {
		if c < 90 || c > 110 {
			t.Fatalf("queue %d served %d times; counts=%v", i, c, counts)
		}
	}
}

func TestPropertyQueuePreservesOrder(t *testing.T) {
	// Property: any interleaving of enqueues and dequeues that respects
	// capacity yields FIFO order.
	f := func(ops []bool) bool {
		q := NewCommandQueue[any](0, 5)
		nextIn, nextOut := 0, 0
		for _, isEnq := range ops {
			if isEnq {
				if err := q.Enqueue(0, nextIn); err == nil {
					nextIn++
				}
			} else if v, ok := q.Dequeue(); ok {
				if v.(int) != nextOut {
					return false
				}
				nextOut++
			}
		}
		for {
			v, ok := q.Dequeue()
			if !ok {
				break
			}
			if v.(int) != nextOut {
				return false
			}
			nextOut++
		}
		return nextIn == nextOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScannerConservation(t *testing.T) {
	// Property: the scanner eventually yields exactly the commands that
	// were enqueued, no more, no fewer.
	f := func(load []uint8) bool {
		if len(load) == 0 {
			return true
		}
		if len(load) > 20 {
			load = load[:20]
		}
		s := NewScanner[any]()
		total := 0
		for i, l := range load {
			q := NewCommandQueue[any](i, 256)
			s.Register(q)
			for k := 0; k < int(l%8); k++ {
				if q.Enqueue(i, k) == nil {
					total++
				}
			}
			if !q.Empty() {
				s.MarkNonEmpty(i)
			}
		}
		got := 0
		for {
			if _, _, ok := s.Next(); !ok {
				break
			}
			got++
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendResume(t *testing.T) {
	s := NewScanner[any]()
	qs := make([]*CommandQueue[any], 3)
	for i := range qs {
		qs[i] = NewCommandQueue[any](i, 8)
		s.Register(qs[i])
	}
	// Suspend queue 1 (its process was descheduled); its commands must
	// not be scanned.
	s.Suspend(1)
	if !s.Suspended(1) || s.Suspended(0) {
		t.Fatal("suspension state wrong")
	}
	for i, q := range qs {
		_ = q.Enqueue(i, i*10)
		s.MarkNonEmpty(i)
	}
	var got []int
	for {
		cmd, _, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, cmd.(int))
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 20 {
		t.Fatalf("scanned %v, want [0 20]", got)
	}
	// Resume: the parked command becomes visible.
	s.Resume(1)
	cmd, idx, ok := s.Next()
	if !ok || idx != 1 || cmd.(int) != 10 {
		t.Fatalf("after resume: %v %d %v", cmd, idx, ok)
	}
}

func TestSuspendEmptyQueueResume(t *testing.T) {
	s := NewScanner[any]()
	q := NewCommandQueue[any](0, 4)
	s.Register(q)
	s.Suspend(0)
	s.Resume(0) // empty: no spurious bit
	if _, _, ok := s.Next(); ok {
		t.Fatal("phantom command after resume of empty queue")
	}
}

// ringLen counts valid entries the slow way: the reference Len's
// maintained count must always agree with.
func ringLen[T any](q *CommandQueue[T]) int {
	n := 0
	for i := range q.ring {
		if q.ring[i].valid {
			n++
		}
	}
	return n
}

func TestPropertyLenMatchesRingWalk(t *testing.T) {
	// Property: after any sequence of enqueues (including ones that bounce
	// off a full ring with ErrFull), direct dequeues, scanner dequeues and
	// scanner crash-restarts, the O(1) Len equals a walk of the ring.
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := 1 + int(capSeed%7)
		s := NewScanner[int]()
		qs := []*CommandQueue[int]{NewCommandQueue[int](0, capacity), NewCommandQueue[int](1, capacity)}
		for _, q := range qs {
			s.Register(q)
		}
		for i, op := range ops {
			q := qs[int(op>>4)%len(qs)]
			switch op % 5 {
			case 0, 1:
				err := q.Enqueue(q.Owner(), i)
				if err == nil {
					s.MarkNonEmpty(q.Owner())
				} else if err != ErrFull || q.Len() != q.Cap() {
					return false
				}
			case 2:
				q.Dequeue()
			case 3:
				s.Next()
			case 4:
				s.Restart()
			}
			for _, q := range qs {
				if q.Len() != ringLen(q) || q.Empty() != (q.Len() == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueueMatchesReferenceFIFO(t *testing.T) {
	// Property: at every capacity from 1 to 70, a random stream of
	// enqueues and dequeues — long enough to grow the ring to capacity
	// and to drain (rewinding it) many times — behaves exactly like an
	// unbounded reference FIFO cut off at the capacity. ErrFull happens
	// exactly when Len()==Cap(), FullHits counts every rejected submit,
	// and the ring never outgrows the capacity.
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 70; capacity++ {
		q := NewCommandQueue[int](0, capacity)
		var ref []int
		var rejected int64
		next := 0
		for step := 0; step < 40*capacity+200; step++ {
			// Phases biased toward filling, then toward draining, so the
			// stream reaches full and empty at every capacity.
			pEnq := 0.7
			if (step/(2*capacity+4))%2 == 1 {
				pEnq = 0.3
			}
			if rng.Float64() < pEnq {
				full := q.Len() == q.Cap()
				err := q.Enqueue(0, next)
				if full != (err == ErrFull) || (err != nil && err != ErrFull) {
					t.Fatalf("cap %d step %d: Enqueue at Len %d = %v", capacity, step, q.Len(), err)
				}
				if err == nil {
					ref = append(ref, next)
					next++
				} else {
					rejected++
				}
			} else {
				v, ok := q.Dequeue()
				if ok != (len(ref) > 0) || (ok && v != ref[0]) {
					t.Fatalf("cap %d step %d: Dequeue = %d, %v; reference %v", capacity, step, v, ok, ref)
				}
				if ok {
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) || q.Len() != ringLen(q) || q.Empty() != (len(ref) == 0) {
				t.Fatalf("cap %d step %d: Len %d, ring walk %d, reference %d", capacity, step, q.Len(), ringLen(q), len(ref))
			}
			if len(q.ring) > capacity || q.Cap() != capacity {
				t.Fatalf("cap %d step %d: ring of %d slots, Cap %d", capacity, step, len(q.ring), q.Cap())
			}
			if q.FullHits() != rejected {
				t.Fatalf("cap %d step %d: FullHits %d, rejected %d", capacity, step, q.FullHits(), rejected)
			}
		}
		if q.Enqueued() != int64(next) {
			t.Fatalf("cap %d: Enqueued %d, accepted %d", capacity, q.Enqueued(), next)
		}
		if rejected == 0 || len(q.ring) != capacity {
			t.Fatalf("cap %d: the stream never filled the queue (%d rejected, ring of %d)", capacity, rejected, len(q.ring))
		}
	}
}

func TestCommandQueueSteadyStateAllocatesNothing(t *testing.T) {
	// Once the ring has grown to a depth, traffic that stays within that
	// depth — wrapping around the ring or draining it — never allocates.
	q := NewCommandQueue[int](0, 64)
	const depth = 5
	for i := 0; i < depth; i++ {
		_ = q.Enqueue(0, i)
	}
	for !q.Empty() {
		q.Dequeue()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < depth; i++ {
			_ = q.Enqueue(0, i)
		}
		for i := 0; i < depth-1; i++ {
			q.Dequeue()
		}
		for i := 0; i < depth-1; i++ {
			_ = q.Enqueue(0, i) // wraps around the end of the ring
		}
		for !q.Empty() {
			q.Dequeue()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state traffic allocates %v per run", allocs)
	}
}
