package comm

import (
	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// Per-architecture cost fragments shared by the micro paths.

// pio returns the programmed-I/O time for n payload bytes.
func (f *Fabric) pio(n int) sim.Time { return arch.XferTime(n, f.A.PIOBW) }

// detectCost is what a user pays to observe a completed synchronization
// flag: a miss on the flag's line (written by the agent), plus a status
// system call under SW, where completion state lives in the kernel.
func (f *Fabric) detectCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		return f.A.AgentMiss
	case arch.Syscall:
		return f.A.SyscallOvh
	default:
		return f.A.CacheMiss
	}
}

// dequeueCost is the user-level cost of popping a record from a queue in
// its own address space: misses on the head pointer and the record (both
// written by the agent), plus a system call under SW, where the kernel must
// copy the record out of a protected buffer.
func (f *Fabric) dequeueCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		return 2*f.A.AgentMiss + f.A.Instr(0.2)
	case arch.Syscall:
		return f.A.SyscallOvh + 2*f.A.CacheMiss + f.A.Instr(0.2)
	default:
		return 2*f.A.CacheMiss + f.A.Instr(0.2)
	}
}

// drainEntryCost is the fixed cost of entering a queue-drain: under SW a
// single receive system call (plus the wakeup signal) can deliver every
// buffered record, so the per-batch kernel crossing is paid once.
func (f *Fabric) drainEntryCost() sim.Time {
	if f.A.Kind == arch.Syscall {
		return f.A.SyscallOvh + f.A.InterruptOvh
	}
	return 0
}

// drainRecordCost is the per-record cost within a batched drain: the head
// and record misses plus bookkeeping, with no additional kernel crossing.
func (f *Fabric) drainRecordCost() sim.Time {
	return 2*f.A.CacheMiss + f.A.Instr(0.2)
}

// DrainStart charges the entry cost of a batched receive and reports
// whether the queue has records. Use with TryRecvBatched to drain a queue
// under batch accounting.
func (ep *Endpoint) DrainStart(q *memory.RQueue) bool {
	if q.Len() == 0 {
		return false
	}
	ep.cpu.Compute(ep.proc, ep.f.drainEntryCost())
	return true
}

// TryRecvBatched is TryRecv under batch accounting: the caller has already
// paid the kernel crossing through DrainStart.
func (ep *Endpoint) TryRecvBatched(q *memory.RQueue) ([]byte, bool) {
	rec, ok := q.TryTake()
	if ok {
		ep.cpu.Compute(ep.proc, ep.f.drainRecordCost())
	}
	return rec, ok
}

// SubmitCost returns the compute-processor time to submit one command
// (exported for the micro-benchmark overhead analysis).
func (f *Fabric) SubmitCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		// Writing the opcode and operands into the user's command queue:
		// a read miss on the tail entry and a write miss publishing it.
		return 2*f.A.AgentMiss + f.A.Instr(0.2)
	case arch.Syscall:
		return f.A.SyscallOvh + f.A.ProtocolOvh
	default:
		return f.A.ComputeOvh
	}
}

// DetectCost exposes detectCost for the overhead analysis.
func (f *Fabric) DetectCost() sim.Time { return f.detectCost() }
