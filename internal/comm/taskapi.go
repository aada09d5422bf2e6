package comm

import (
	"fmt"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Task-side submission paths. The serving workloads run every client and
// server as a run-to-completion sim.Task, so they submit through these
// continuation-passing twins of the blocking Endpoint API (which the
// applications call from Procs). Cost accounting mirrors the blocking
// API call for call; both feed the same agents.

// EnqBytesTask is EnqBytes for a run-to-completion caller: k runs once
// the submission has been charged and handed to the send path (not when
// the record arrives — ENQ is asynchronous either way). Unlike EnqBytes it
// does not copy data: the record travels as is, so the caller hands it
// over and must not touch it again. Whether the consumer may then recycle
// it is ExclusiveDelivery's answer.
func (ep *Endpoint) EnqBytesTask(t *sim.Task, data []byte, rq memory.QueueRef, lsync memory.FlagRef, k func()) error {
	if _, err := ep.f.Cl.Reg.CheckQueue(ep.rank, rq, "ENQ"); err != nil {
		return err
	}
	ep.record(OpEnq, len(data))
	ep.submitTask(t, request{kind: OpEnq, from: ep.rank, payload: data, rq: rq, n: len(data), fsync: lsync}, k)
	return nil
}

// ExclusiveDelivery reports whether an ENQ record submitted by rank src
// reaches its destination queue exactly once with no other holder, so its
// consumer may recycle the buffer once done with it. It is false under the
// reliable transport, which keeps payloads for retransmission, and when a
// fault plane on src's output link may duplicate the packet.
func (f *Fabric) ExclusiveDelivery(src int) bool {
	return f.relE == nil && !f.nodeOf(src).OutLink.Faulty()
}

// submitFrame is one task-side submission in flight: the request and its
// continuation, carried across the submission's compute intervals by a
// step method value bound once per frame. Frames recycle through the
// endpoint's freelist, which only the endpoint's own node ever touches.
type submitFrame struct {
	ep    *Endpoint
	t     *sim.Task
	r     request
	k     func()
	stage uint8 // which send path step continues on (sub* below)
	stepK func()
}

const (
	subEnqueue uint8 = iota // proxy: write the user's command ring
	subAdapter              // custom hardware: hand the command to the adapter
	subIntra                // same node: deposit through shared memory
)

func (ep *Endpoint) newSubmitFrame(t *sim.Task, r request, k func(), stage uint8) func() {
	var fr *submitFrame
	if n := len(ep.subFree); n > 0 {
		fr = ep.subFree[n-1]
		ep.subFree[n-1] = nil
		ep.subFree = ep.subFree[:n-1]
	} else {
		fr = &submitFrame{ep: ep}
		fr.stepK = fr.step
	}
	fr.t, fr.r, fr.k, fr.stage = t, r, k, stage
	return fr.stepK
}

func (fr *submitFrame) step() {
	switch fr.stage {
	case subEnqueue:
		fr.enqueueCmd()
	case subAdapter:
		fr.hwSubmit()
	default:
		fr.intraEnq()
	}
}

// release returns the frame to its endpoint's freelist and hands back the
// continuation, so the caller can run k with the frame already reusable.
func (fr *submitFrame) release() func() {
	k := fr.k
	fr.t, fr.r, fr.k = nil, request{}, nil
	fr.ep.subFree = append(fr.ep.subFree, fr)
	return k
}

// submitTask is submit in continuation-passing style.
func (ep *Endpoint) submitTask(t *sim.Task, r request, k func()) {
	f := ep.f
	r.issued = ep.cpu.Node.Eng.Now()
	if !f.forceRemote && f.nodeOf(f.targetRank(r)) == ep.cpu.Node {
		ep.intra++
		f.intraTask(ep, t, r, k)
		return
	}
	switch f.A.Kind {
	case arch.Proxy:
		ep.cpu.ComputeTask(t, 2*f.A.AgentMiss+f.A.Instr(0.2), ep.newSubmitFrame(t, r, k, subEnqueue))
	case arch.CustomHW:
		ep.cpu.ComputeTask(t, f.A.ComputeOvh, ep.newSubmitFrame(t, r, k, subAdapter))
	default:
		panic("comm: task submission is not supported under the system-call design point")
	}
}

// enqueueCmd writes the command into the user's ring, spinning one
// polling period per retry while the ring is full, exactly like submit's
// blocking loop.
func (fr *submitFrame) enqueueCmd() {
	ep := fr.ep
	if err := ep.cmdq.Enqueue(ep.rank, fr.r); err != nil {
		ep.cpu.ComputeTask(fr.t, ep.f.A.PollDelay(), fr.stepK)
		return
	}
	node := ep.cpu.Node
	node.Eng.Emit(trace.KEnqueue, ep.cmdqComp, int64(ep.cmdq.Len()))
	ep.f.scanners[node.ID][ep.proxyIdx].MarkNonEmpty(ep.cmdqIdx)
	node.Agents[ep.proxyIdx].Submit(ep.work)
	fr.release()()
}

// hwSubmit hands the command to the adapter, as submit's CustomHW branch.
func (fr *submitFrame) hwSubmit() {
	fr.ep.f.hwSubmit(fr.ep.cpu.Node, fr.r)
	fr.release()()
}

// intraTask is intra for the task-side operations the serving workloads
// use (ENQ is the only primitive the AM layer submits).
func (f *Fabric) intraTask(ep *Endpoint, t *sim.Task, r request, k func()) {
	A := f.A
	copyCost := 2*A.CacheMiss + arch.XferTime(r.n, A.MemBW)
	switch r.kind {
	case OpEnq:
		ep.cpu.ComputeTask(t, copyCost+A.CacheMiss, ep.newSubmitFrame(t, r, k, subIntra))
	default:
		panic(fmt.Sprintf("comm: intra-node %v unsupported on the task path", r.kind))
	}
}

// intraEnq completes an intra-node ENQ through shared memory.
func (fr *submitFrame) intraEnq() {
	f, r := fr.ep.f, &fr.r
	f.depositQueue(r.rq, f.readSource(*r))
	f.Cl.Reg.Signal(r.fsync)
	f.opDone(fr.ep.cpu.Node, OpEnq, r.issued)
	fr.release()()
}

// RecvCost returns the user-level dequeue cost charged per received
// record, exported for run-to-completion receive loops layered above
// (the blocking Recv/TryRecv charge it internally).
func (f *Fabric) RecvCost() sim.Time { return f.dequeueCost() }
