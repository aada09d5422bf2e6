package comm

import (
	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// Agent protocol paths. Each communication agent — a message proxy or a
// custom-hardware adapter — serves its work items through one resident
// agentExec: a continuation frame whose step method is the protocol's
// state machine. Every cost is paid with hold(cost, pc), which parks the
// agent's Task for that long and resumes at the named program counter.
// One work item executes at a time per agent, which is what lets a single
// frame serve every item with zero steady-state allocation.
//
// Both agents run the same states: the message proxy and the adapter
// speak one protocol and differ only in what each step costs, which every
// hold reads from the fabric's agentCosts row for its design point. Two
// things stay structural. The proxy finds its commands by scanning the
// registered command queues (mpServiceWork, mpStealWork and pcStealScan),
// where the adapter is handed each one (hwSendWork); and the proxy
// decodes a GET request in software before checking its rsync, where the
// adapter's engine checks on arrival (agentCosts.decodeGetReq).
//
// The system-call design point has no agent: its paths (sw.go) run on the
// issuing process and in the destination's interrupt handlers.

// agentCosts is an agent's cost schedule: what each hold of the shared
// state machine charges on one design point. NewWith derives it once from
// arch.Params (agentCostsFor); pio(n) is added per packet wherever a
// payload moves by programmed I/O.
type agentCosts struct {
	pioSend   sim.Time // PIO PUT or ENQ: header, source read, launch; plus pio(n)
	pageSetup sim.Time // header and DMA setup of a paged PUT or GET reply
	request   sim.Time // GET or DEQ request: header only
	flag      sim.Time // writing a sync flag (lsync, rsync or fsync)
	ack       sim.Time // building and launching a PUT ack
	getReply  sim.Time // PIO GET reply; plus pio(n)
	deqReply  sim.Time // DEQ reply; plus pio(n)
	// recv is the per-kind receive cost; pio(n) is added for the kinds
	// whose payload moves by PIO (PUT, GET, ENQ and DEQ data).
	recv [pktAck + 1]sim.Time
	// decodeGetReq holds recv[pktGetReq] for a software decode before a
	// GET request's rsync check.
	decodeGetReq bool
}

// agentCostsFor returns the cost schedule of A's communication agent
// (zero under the system-call design point, which has none).
func agentCostsFor(A arch.Params) agentCosts {
	switch A.Kind {
	case arch.Proxy:
		// Message proxy: every work item is one turn of the Figure 5
		// dispatch loop, with costs from the Section 4 latency model —
		// cache misses on command-queue entries and user buffers
		// (AgentMiss, reduced by MP2's cache-update primitive), uncached
		// FIFO accesses (U), cross-memory attaches (V), fixed instruction
		// sequences scaled by the proxy's speed (us/S), and the polling
		// notice delay (P) charged by the Agent when it was idle.
		U, M := A.Uncached, A.AgentMiss
		c := agentCosts{
			// Header setup, read source data (miss + uncached), PIO the
			// payload into the output FIFO, launch. ENQ records always
			// move by PIO: queue entries are bounded small messages.
			pioSend:   U + A.Instr(0.6) + M + U + U,
			pageSetup: U + A.Instr(0.8),
			request:   U + A.Instr(0.7) + U,
			flag:      M,
			ack:       U + A.Instr(0.3) + U,
			// Build reply: header, read the source (miss + uncached), PIO
			// out, launch.
			getReply:     U + A.Instr(0.7) + M + U + U,
			deqReply:     U + A.Instr(0.5) + M + U,
			decodeGetReq: true,
		}
		// Read header (miss), decode/dispatch, vm_att, checks, read the
		// payload (uncached + PIO), copy to destination (write miss). A GET
		// reply's lsync costs another write miss (the flag hold).
		c.recv[pktPutData] = A.CacheMiss + A.Instr(0.9) + A.VMAtt + U + M
		c.recv[pktGetData] = A.CacheMiss + A.Instr(0.5) + A.VMAtt + U + M
		c.recv[pktDeqData] = c.recv[pktGetData]
		// An ENQ is a PUT deposit plus the tail-pointer read/update and
		// record bookkeeping in the owner's queue.
		c.recv[pktEnqData] = c.recv[pktPutData] + 2*A.CacheMiss + M
		// DMA deposits a page; the proxy pays per-page bookkeeping.
		c.recv[pktPutPage] = A.Instr(0.3) + M
		c.recv[pktGetPage] = c.recv[pktPutPage]
		c.recv[pktGetReq] = A.CacheMiss + A.Instr(1.0) + A.VMAtt
		c.recv[pktDeqReq] = A.CacheMiss + A.Instr(0.8) + A.VMAtt
		c.recv[pktAck] = A.CacheMiss + A.Instr(0.3) + M
		return c
	case arch.CustomHW:
		// Custom hardware: the agent models the adapter's protocol engine
		// (its message input and output logic), paying AdapterOvh of
		// engine occupancy per message. Protection comes from
		// virtual-memory mapping, so there are no vm_att calls, no polling
		// delay and no page pinning; commands and buffers cross the memory
		// bus (CacheMiss) and the engine consumes the network input
		// continuously.
		O, M := A.AdapterOvh, A.CacheMiss
		c := agentCosts{
			pioSend:   O + M,
			pageSetup: O,
			request:   O,
			flag:      M,
			ack:       O,
			getReply:  O + M,
			deqReply:  O,
		}
		c.recv[pktPutData] = O + M
		c.recv[pktGetData] = O + M
		c.recv[pktDeqData] = O + M
		c.recv[pktEnqData] = O + 2*M
		c.recv[pktPutPage] = A.Instr(0.1)
		c.recv[pktGetPage] = A.Instr(0.1)
		c.recv[pktDeqReq] = O
		c.recv[pktAck] = O + M
		return c
	}
	return agentCosts{}
}

// Program counters for agentExec.step.
const (
	pcPagePinned = iota
	pcPageDMADone

	// send side
	pcSend
	pcShip
	pcEnqSync
	pcPutPages

	// receive side
	pcPutDeposit
	pcPutRsync
	pcPutAckShip
	pcPutPage
	pcGetReqDecoded
	pcGetReqRsync
	pcGetDataShip
	pcGetPagesStart
	pcGetDeposit
	pcGetPageStep
	pcEnqDeposit
	pcDeqReqTake
	pcDeqReplyShip
	pcDeqDeposit
	pcFsync // GET and DEQ replies and PUT acks: signal fsync, finish

	// proxy only: a stolen scan turn
	pcStealScan
)

// agentExec is one agent's protocol frame.
type agentExec struct {
	f        *Fabric
	a        *machine.Agent
	node     *machine.Node
	scanIdx  int // index of the proxy's command-queue scanner on this node
	stealIdx int // victim scanner index of the current stolen turn

	pc    int
	stepK func() // prebuilt fr.step, carried by every Hold/Occupy wake

	r    request   // current send-side command
	pkt  *packet   // current receive-side packet (freed at finish)
	box  *deqReply // current DEQ reply operand
	nOut int       // DEQ reply payload size (min of requested and record)

	// Page-streaming loop state (see startPages).
	proto   packet
	srcAddr memory.Addr
	off     int
	chunk   int
}

// deqReply carries a dequeued record and the request it answers from the
// queue's TakeAsync callback to the reply work item.
type deqReply struct {
	req packet
	rec []byte
}

func (fr *agentExec) hold(d sim.Time, pc int) {
	fr.pc = pc
	fr.a.Task().Hold(d, fr.stepK)
}

// finish completes the current work item: release the consumed packet,
// clear the frame, hand the agent to its next item.
func (fr *agentExec) finish() {
	if fr.pkt != nil {
		fr.f.freePacket(fr.pkt)
		fr.pkt = nil
	}
	fr.r = request{}
	fr.box = nil
	fr.proto = packet{}
	fr.a.WorkDone()
}

// step dispatches the frame's parked continuation.
func (fr *agentExec) step() {
	f := fr.f
	c := &f.cost
	reg := f.Cl.Reg
	switch fr.pc {
	// ---- page streaming ----
	case pcPagePinned:
		fr.pagePinned()
	case pcPageDMADone:
		fr.pageDMADone()

	// ---- send side ----
	case pcSend:
		fr.send()
	case pcShip:
		// The request's one packet: PUT or ENQ data by PIO, or a GET or
		// DEQ request (header only).
		r := fr.r
		pkt := f.newPacketWith(fr.node.OutLink, f.header(r))
		switch r.kind {
		case OpPut:
			f.readSourceInto(pkt, r)
		case OpEnq:
			// The record is handed to the destination queue, which retains
			// the slice: it must not alias the packet's reusable buf.
			pkt.data = f.readSource(r)
		}
		f.ship(fr.node, pkt, false)
		if r.kind == OpEnq && !r.fsync.Nil() {
			// ENQ lsync: the source buffer has been transmitted.
			fr.hold(c.flag, pcEnqSync)
			return
		}
		fr.finish()
	case pcEnqSync:
		reg.Signal(fr.r.fsync)
		fr.finish()
	case pcPutPages:
		fr.startPages(f.header(fr.r), fr.r.local)

	// ---- receive side ----
	case pcPutDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		f.opDone(fr.node, OpPut, fr.pkt.issued)
		fr.finishPut()
	case pcPutRsync:
		reg.Signal(fr.pkt.rsync)
		fr.finishPutAck()
	case pcPutAckShip:
		fr.shipAck()
		fr.finish()
	case pcPutPage:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			f.opDone(fr.node, OpPut, fr.pkt.issued)
			fr.finishPut()
			return
		}
		fr.finish()
	case pcGetReqDecoded:
		fr.getReqDecoded()
	case pcGetReqRsync:
		reg.Signal(fr.pkt.rsync)
		fr.getReqReply()
	case pcGetDataShip:
		in := fr.pkt
		pkt := f.newPacketWith(fr.node.OutLink, reply(in, pktGetData))
		f.readBytesInto(pkt, in.src, in.n)
		f.ship(fr.node, pkt, false)
		fr.finish()
	case pcGetPagesStart:
		fr.startPages(reply(fr.pkt, pktGetPage), fr.pkt.src)
	case pcGetDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		f.opDone(fr.node, OpGet, fr.pkt.issued)
		fr.hold(c.flag, pcFsync)
	case pcGetPageStep:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		if fr.pkt.last {
			f.opDone(fr.node, OpGet, fr.pkt.issued)
			fr.hold(c.flag, pcFsync)
			return
		}
		fr.finish()
	case pcEnqDeposit:
		f.depositQueue(fr.pkt.rq, fr.pkt.data)
		f.opDone(fr.node, OpEnq, fr.pkt.issued)
		fr.finish()
	case pcDeqReqTake:
		fr.deqTake()
	case pcDeqReplyShip:
		fr.shipDeqReply()
	case pcDeqDeposit:
		f.depositBytes(fr.pkt.dst, fr.pkt.data)
		f.opDone(fr.node, OpDeq, fr.pkt.issued)
		fr.hold(c.flag, pcFsync)
	case pcFsync:
		reg.Signal(fr.pkt.fsync)
		fr.finish()

	// ---- proxy only ----
	case pcStealScan:
		// Stolen turn (see steal.go): the cross-queue penalty is paid,
		// now scan the victim exactly as a home turn scans its own.
		fr.scanTurn(fr.stealIdx)

	default:
		panic("comm: agentExec woke at unknown pc")
	}
}

// shipAck sends the PUT confirmation for the packet being processed.
func (fr *agentExec) shipAck() {
	in := fr.pkt
	pkt := fr.f.newPacket(fr.node.OutLink)
	pkt.kind, pkt.from, pkt.to, pkt.fsync = pktAck, in.to, in.from, in.fsync
	fr.f.ship(fr.node, pkt, false)
}

// finishPut completes a PUT deposit: signal the remote flag and, when the
// sender asked for local completion, return an acknowledgment.
func (fr *agentExec) finishPut() {
	if !fr.pkt.rsync.Nil() {
		fr.hold(fr.f.cost.flag, pcPutRsync)
		return
	}
	fr.finishPutAck()
}

func (fr *agentExec) finishPutAck() {
	if !fr.pkt.fsync.Nil() {
		fr.hold(fr.f.cost.ack, pcPutAckShip)
		return
	}
	fr.finish()
}

// getReqDecoded signals a decoded GET request's rsync, if any, then
// builds the reply.
func (fr *agentExec) getReqDecoded() {
	if !fr.pkt.rsync.Nil() {
		fr.hold(fr.f.cost.flag, pcGetReqRsync)
		return
	}
	fr.getReqReply()
}

// getReqReply builds the GET reply: PIO for small transfers, the page
// streamer otherwise.
func (fr *agentExec) getReqReply() {
	f := fr.f
	if n := fr.pkt.n; n <= f.A.PIOCutoff {
		fr.hold(f.cost.getReply+f.pio(n), pcGetDataShip)
		return
	}
	fr.hold(f.cost.pageSetup, pcGetPagesStart)
}

// deqTake finishes a DEQ request: copy the request out of the (about to
// be freed) packet, then hand the reply work to the queue owner's serving
// agent once a record is available. The TakeAsync closure allocates once
// per DEQ.
func (fr *agentExec) deqTake() {
	f := fr.f
	q, _ := f.Cl.Reg.Queue(fr.pkt.rq)
	box := &deqReply{req: *fr.pkt}
	work := machine.Work{TFn: deqReplyWork, Arg: box}
	q.TakeAsync(func(rec []byte) {
		box.rec = rec
		f.agentForRank(box.req.to).Submit(work)
	})
	fr.finish()
}

func (fr *agentExec) shipDeqReply() {
	f := fr.f
	box := fr.box
	n := fr.nOut
	pkt := f.newPacketWith(fr.node.OutLink, reply(&box.req, pktDeqData))
	pkt.n, pkt.data = n, box.rec[:n]
	f.ship(fr.node, pkt, false)
	fr.finish()
}

// send is the send dispatch: one hold sized per operation, then the
// matching ship state.
func (fr *agentExec) send() {
	f := fr.f
	c := &f.cost
	r := fr.r
	switch r.kind {
	case OpPut, OpEnq:
		if r.kind == OpPut && r.n > f.A.PIOCutoff {
			fr.hold(c.pageSetup, pcPutPages)
			return
		}
		fr.hold(c.pioSend+f.pio(r.n), pcShip)
	case OpGet, OpDeq:
		fr.hold(c.request, pcShip)
	}
}

// ---- page streaming ----

// startPages begins streaming proto.n bytes from srcAddr page by page —
// pin (unless Prepinned), occupy the DMA engine, cut the page through to
// the wire — then finishes the work item. This serialized per-page cycle
// is the agents' side of sendPages (ship.go), whose cost analysis applies.
func (fr *agentExec) startPages(proto packet, srcAddr memory.Addr) {
	fr.proto, fr.srcAddr, fr.off = proto, srcAddr, 0
	fr.pageLoop()
}

func (fr *agentExec) pageLoop() {
	A := fr.f.A
	if fr.off >= fr.proto.n {
		fr.finish()
		return
	}
	chunk := fr.proto.n - fr.off
	if chunk > A.PageSize {
		chunk = A.PageSize
	}
	fr.chunk = chunk
	if !A.Prepinned {
		fr.hold(2*A.PinPerPage, pcPagePinned)
		return
	}
	fr.pagePinned()
}

func (fr *agentExec) pagePinned() {
	fr.pc = pcPageDMADone
	fr.node.DMA.OccupyTask(fr.a.Task(), fr.chunk, fr.stepK)
}

func (fr *agentExec) pageDMADone() {
	f := fr.f
	pg := f.newPacketWith(fr.node.OutLink, fr.proto)
	pg.n = fr.chunk
	f.readBytesInto(pg, fr.srcAddr.Plus(fr.off), fr.chunk) // read after the DMA completes
	pg.dst = fr.proto.dst.Plus(fr.off)
	pg.last = fr.off+fr.chunk == fr.proto.n
	f.ship(fr.node, pg, true)
	fr.off += fr.chunk
	fr.pageLoop()
}

// ---- work-item entry points (Work.TFn bodies; static functions so the
// work items themselves allocate nothing) ----

// mpServiceWork is one turn of the proxy's dispatch loop on its own
// command queues.
func mpServiceWork(a *machine.Agent, _ any) {
	fr := a.Exec().(*agentExec)
	fr.scanTurn(fr.scanIdx)
}

// scanTurn scans the command queues of this node's proxy idx round-robin
// and dequeues, decodes and attaches the user's address space for the
// next command, then dispatches it to the send path. A turn that finds
// nothing retires: its scan hint was stale, or another proxy's steal got
// there first.
func (fr *agentExec) scanTurn(idx int) {
	f := fr.f
	r, qi, ok := f.scanners[fr.node.ID][idx].Next()
	if !ok {
		fr.finish()
		return
	}
	fr.node.Eng.Emit(trace.KDequeue, f.cmdqNames[fr.node.ID][idx][qi], 0)
	fr.r = r
	A := f.A
	// Dequeue entry (read miss), decode command and allocate a CCB,
	// vm_att to the user's space.
	fr.hold(A.AgentMiss+A.Instr(0.5)+A.VMAtt, pcSend)
}

// hwSendWork hands the adapter the command carried in the reqBox.
func hwSendWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	box := arg.(*reqBox)
	fr.r = box.r
	fr.f.freeReqBox(box)
	fr.send()
}

// recvWork services a packet arriving at the agent: polled from the
// network input FIFO by the proxy, consumed by the adapter's engine.
func recvWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	pkt := arg.(*packet)
	fr.pkt = pkt
	f := fr.f
	c := &f.cost
	switch pkt.kind {
	case pktPutData:
		fr.hold(c.recv[pktPutData]+f.pio(pkt.n), pcPutDeposit)
	case pktPutPage:
		fr.hold(c.recv[pktPutPage], pcPutPage)
	case pktGetReq:
		if !c.decodeGetReq {
			fr.getReqDecoded()
			return
		}
		fr.hold(c.recv[pktGetReq], pcGetReqDecoded)
	case pktGetData:
		fr.hold(c.recv[pktGetData]+f.pio(pkt.n), pcGetDeposit)
	case pktGetPage:
		fr.hold(c.recv[pktGetPage], pcGetPageStep)
	case pktEnqData:
		fr.hold(c.recv[pktEnqData]+f.pio(pkt.n), pcEnqDeposit)
	case pktDeqReq:
		fr.hold(c.recv[pktDeqReq], pcDeqReqTake)
	case pktDeqData:
		fr.hold(c.recv[pktDeqData]+f.pio(pkt.n), pcDeqDeposit)
	case pktAck:
		fr.hold(c.recv[pktAck], pcFsync)
	}
}

// deqReplyWork ships a dequeued record back to the requester.
func deqReplyWork(a *machine.Agent, arg any) {
	fr := a.Exec().(*agentExec)
	box := arg.(*deqReply)
	fr.box = box
	n := box.req.n
	if len(box.rec) < n {
		n = len(box.rec)
	}
	fr.nOut = n
	fr.hold(fr.f.cost.deqReply+fr.f.pio(n), pcDeqReplyShip)
}
