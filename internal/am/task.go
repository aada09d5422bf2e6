package am

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// Run-to-completion active messaging. The serving workloads run clients
// and servers as sim.Tasks; this file is the AM layer's task-side
// surface: SendTask submits a message in continuation-passing style, and
// ServeWhileTask turns a task into the port's message loop. Handlers
// registered for task dispatch receive the serving task and a
// continuation they must invoke exactly once — which lets a KV handler
// chain further sends (a reply, replication fan-out) before yielding the
// loop. Cost accounting matches the blocking API line for line.

// TaskHandler is an active-message handler dispatched on a
// run-to-completion serve loop. It must call k exactly once when its
// work (including any chained sends) is submitted. args and payload are
// valid only until then: args lives in the port's decode scratch and
// payload aliases the record, which k recycles. A handler forwarding
// payload passes k to the SendTask that carries it (or calls k only
// after that send's own continuation).
type TaskHandler func(p *Port, t *sim.Task, src int, args []int64, payload []byte, k func())

// RegisterTask adds a task-dispatched handler to the table and returns
// its id. Ids share one space with Register's: a message addressed to a
// task handler must be consumed by ServeWhileTask, not a blocking poll.
func (l *Layer) RegisterTask(h TaskHandler) int {
	l.handlers = append(l.handlers, nil)
	l.taskHandlers = append(l.taskHandlers, h)
	return len(l.taskHandlers) - 1
}

// SendTask is Send for a run-to-completion caller: k runs when the
// message has been submitted (local deliveries complete first). args is
// copied at the call; payload is read when the record is marshalled,
// before k runs, so it need only stay valid until then.
func (p *Port) SendTask(t *sim.Task, dst, handler int, args []int64, payload []byte, k func()) {
	if handler < 0 || handler >= len(p.l.handlers) {
		panic(fmt.Sprintf("am: rank %d sends unknown handler %d", p.rank, handler))
	}
	fr := p.newSendFrame()
	fr.t, fr.dst, fr.handler, fr.payload, fr.k = t, dst, handler, payload, k
	fr.args = append(fr.args[:0], args...)
	a := p.l.f.A
	p.ep.CPU().ComputeTask(t, a.Instr(1.5)+a.CacheMiss, fr.stepK)
}

// sendFrame is one SendTask in flight: destination, handler, an inline
// copy of the argument words, the payload and the caller's continuation,
// carried across the marshalling interval by a step method value bound
// once per frame. Frames recycle through the sending port's freelist.
type sendFrame struct {
	p       *Port
	t       *sim.Task
	dst     int
	handler int
	argv    [4]int64 // inline backing for args
	args    []int64
	payload []byte
	rec     []byte // the marshalled record, held across a self-send
	k       func()
	stepK   func()
}

func (p *Port) newSendFrame() *sendFrame {
	if n := len(p.sendFree); n > 0 {
		fr := p.sendFree[n-1]
		p.sendFree[n-1] = nil
		p.sendFree = p.sendFree[:n-1]
		return fr
	}
	fr := &sendFrame{p: p}
	fr.args = fr.argv[:0]
	fr.stepK = fr.step
	return fr
}

// release returns the frame to its port's freelist and hands back the
// continuation, so the caller can run k with the frame already reusable.
func (fr *sendFrame) release() func() {
	k := fr.k
	fr.t, fr.payload, fr.rec, fr.k = nil, nil, nil, nil
	fr.args = fr.args[:0]
	fr.p.sendFree = append(fr.p.sendFree, fr)
	return k
}

// step runs after the marshalling interval (encode) and, for a self-send,
// again after the local queue write (deliverSelf).
func (fr *sendFrame) step() {
	if fr.rec == nil {
		fr.encode()
	} else {
		fr.deliverSelf()
	}
}

// encode marshals the record into a buffer from the port's record pool
// and submits it. Remote records are handed to the communication layer
// without another copy; their consumer recycles them (serveLoop.next).
func (fr *sendFrame) encode() {
	p := fr.p
	rec := p.takeRecord(RecordBytes(len(fr.args), len(fr.payload)))
	encode(rec, fr.handler, p.rank, fr.args, fr.payload)
	if fr.dst == p.rank {
		// Queue-mediated like Send: self-sends must not run nested.
		fr.rec = rec
		p.ep.CPU().ComputeTask(fr.t, p.l.f.A.CacheMiss, fr.stepK)
		return
	}
	t, dst := fr.t, fr.dst
	if err := p.ep.EnqBytesTask(t, rec, p.l.refs[dst], memory.FlagRef{}, fr.release()); err != nil {
		panic(fmt.Sprintf("am: rank %d -> %d: %v", p.rank, dst, err))
	}
}

func (fr *sendFrame) deliverSelf() {
	p, rec := fr.p, fr.rec
	k := fr.release()
	p.l.queues[p.rank].Deliver(rec)
	k()
}

// Record pool. A record of up to recordSlot bytes is carried in a
// fixed-size slot taken from the sending port's pool and, once delivered
// exclusively (comm.Fabric.ExclusiveDelivery), released into the
// receiving port's pool after its handler's continuation has run — so
// slots migrate with the traffic, but every pool is only ever touched
// from its own port's node. One slot size keeps slots interchangeable
// between ports that receive small requests and send larger replies.
// Larger records (bulk SCAN replies) are plain allocations left to the GC.
const (
	recordSlot    = 512 // bytes per pooled record slot
	pooledRecords = 16  // slots kept per port; further releases go to the GC
)

// takeRecord returns an n-byte record buffer, in a pooled slot when the
// record fits one.
func (p *Port) takeRecord(n int) []byte {
	if n > recordSlot {
		return make([]byte, n)
	}
	last := len(p.recFree) - 1
	if last < 0 {
		return make([]byte, n, recordSlot)
	}
	rec := p.recFree[last]
	p.recFree[last] = nil
	p.recFree = p.recFree[:last]
	return rec[:n]
}

// releaseRecord pools a consumed record's slot, if it has one and there
// is room.
func (p *Port) releaseRecord(rec []byte) {
	if cap(rec) != recordSlot || len(p.recFree) >= pooledRecords {
		return
	}
	if p.recFree == nil {
		p.recFree = make([][]byte, 0, pooledRecords)
	}
	p.recFree = append(p.recFree, rec)
}

// ServeWhileTask turns t into the port's message loop: every arriving
// record is dispatched to its task handler, and done is checked after
// each dispatch — when it reports true the loop returns and the task
// ends. A server that never finishes passes a false-returning done and
// is spawned as a daemon. The port's queue must have exactly one
// consumer.
func (p *Port) ServeWhileTask(t *sim.Task, done func() bool) {
	s := &p.srv
	if s.p == nil {
		s.p, s.args = p, s.argv[:0]
		s.takeK, s.contK, s.nextK = s.stash, s.cont, s.next
	}
	s.t, s.done = t, done
	s.step()
}

// serveLoop is a port's task-side message loop, with its continuations
// bound on first use. It holds the record being dispatched and its
// decoded fields; args live in per-port scratch that stays valid until
// the handler calls its continuation.
type serveLoop struct {
	p    *Port
	t    *sim.Task
	done func() bool

	rec     []byte
	decoded bool // rec is decoded and charged; cont runs its handler
	h, src  int
	argv    [4]int64 // inline decode scratch for args
	args    []int64
	payload []byte

	takeK        func([]byte)
	contK, nextK func()
}

func (s *serveLoop) step() {
	q := s.p.l.queues[s.p.rank]
	rec, ok := q.TryTake()
	if !ok {
		q.TakeAsync(s.takeK)
		s.t.Park(s.contK)
		return
	}
	s.dispatch(rec)
}

// stash runs when a record lands in the empty queue (in the owner node's
// event context): it hands the record to the parked loop and wakes it.
func (s *serveLoop) stash(rec []byte) {
	s.rec = rec
	s.p.ep.Node().Eng.WakeTask(s.t)
}

// cont resumes the loop: after a park it dispatches the stashed record,
// after the dispatch charge it runs the handler.
func (s *serveLoop) cont() {
	if s.decoded {
		s.run()
	} else {
		s.dispatch(s.rec)
	}
}

// dispatch charges the receive-side costs (queue pop plus handler
// invocation, as Recv + dispatch would), then cont runs the task handler,
// whose continuation loops or finishes the serve.
func (s *serveLoop) dispatch(rec []byte) {
	p := s.p
	s.rec, s.decoded = rec, true
	s.h, s.src, s.args, s.payload = decode(rec, s.args)
	a := p.l.f.A
	n := msgHeader + 8*len(s.args) + len(s.payload)
	cost := p.l.f.RecvCost() + a.Instr(2.0) + 2*a.CacheMiss + arch.XferTime(n, a.PIOBW)
	p.ep.CPU().ComputeTask(s.t, cost, s.contK)
}

func (s *serveLoop) run() {
	p := s.p
	s.decoded = false
	p.delivered++
	th := p.l.taskHandlers[s.h]
	if th == nil {
		panic(fmt.Sprintf("am: handler %d is poll-registered; it cannot run on a task serve loop", s.h))
	}
	th(p, s.t, s.src, s.args, s.payload, s.nextK)
}

// next is every handler's continuation: the record is consumed, so it
// returns to the port's pool (when no one else can still hold it) and
// the loop finishes or takes the next record.
func (s *serveLoop) next() {
	p := s.p
	if p.l.f.ExclusiveDelivery(s.src) {
		p.releaseRecord(s.rec)
	}
	s.rec, s.payload = nil, nil
	if s.done() {
		return
	}
	s.step()
}
