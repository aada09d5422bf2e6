package scenario

import (
	"fmt"
	"io"
	"math"

	"mproxy/internal/queueing"
	"mproxy/internal/workload"
)

// renderQueue reproduces the Section 5.4 contention analysis: given
// measured per-processor message rates and proxy utilizations (as in
// Table 6), how many compute processors can one message proxy support
// before queueing delay destabilizes it — the paper's "utilization
// below 50%" rule — and when is it better to use the extra SMP
// processor for a proxy rather than for computation.
func renderQueue(s Spec, opt options, w io.Writer) error {
	sc := specScale(s)
	ppn := s.Topology.PPN
	mp1 := mustArch("MP1")
	sw1 := mustArch("SW1")

	fmt.Fprintln(w, "Section 5.4: message proxy contention analysis")
	fmt.Fprintln(w, "  (per-processor load measured under MP1 with 16 uniprocessor nodes,")
	fmt.Fprintln(w, "   so each proxy serves exactly one compute processor)")
	fmt.Fprintf(w, "  %-12s %10s %10s %9s %9s %10s %12s\n",
		"Program", "rate op/ms", "util @1", "util @2", "util @4", "supported", "wait @2 (us)")
	for _, spec := range specApps(s) {
		res, err := workload.Run(spec.New(sc), mp1, topo(16, 1), opt.workload())
		if err != nil {
			fmt.Fprintf(w, "  %-12s ERROR: %v\n", spec.Name, err)
			continue
		}
		p := queueing.FromMeasurement(res.MsgRate, res.AgentUtil, 1)
		wait := func(n int) string {
			v := p.WaitUs(n)
			if math.IsInf(v, 1) {
				return "unstable"
			}
			return fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "  %-12s %10.2f %9.1f%% %8.1f%% %8.1f%% %10d %12s\n",
			spec.Name, res.MsgRate, 100*p.Utilization(1), 100*p.Utilization(2),
			100*p.Utilization(4), p.Supported(), wait(2))
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "To compute or to communicate (P = %d processors per SMP node):\n", ppn)
	fmt.Fprintf(w, "  a message proxy pays off when it beats system calls by more than "+
		"P/(P-1) = %.3f\n", float64(ppn)/float64(ppn-1))
	fmt.Fprintf(w, "  %-12s %12s %12s %8s %s\n", "Program", "MP2 time ms", "SW1 time ms", "ratio", "verdict")
	mp2 := mustArch("MP2")
	for _, spec := range specApps(s) {
		resMP, err1 := workload.Run(spec.New(sc), mp2, topo(4, ppn), opt.workload())
		resSW, err2 := workload.Run(spec.New(sc), sw1, topo(4, ppn), opt.workload())
		if err1 != nil || err2 != nil {
			fmt.Fprintf(w, "  %-12s ERROR: %v %v\n", spec.Name, err1, err2)
			continue
		}
		ratio := float64(resSW.Time) / float64(resMP.Time)
		verdict := "use SW (keep the processor)"
		if queueing.UseProxyOverSyscalls(float64(resMP.Time), float64(resSW.Time), ppn+1) {
			verdict = "use the message proxy"
		}
		fmt.Fprintf(w, "  %-12s %12.2f %12.2f %8.2f %s\n",
			spec.Name, resMP.Time.Millis(), resSW.Time.Millis(), ratio, verdict)
	}
	return nil
}
