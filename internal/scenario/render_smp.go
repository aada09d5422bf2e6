package scenario

import (
	"fmt"
	"io"

	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/machine"
	"mproxy/internal/workload"
)

// topo builds a uniprocessor-interface topology of nodes x ppn.
func topo(nodes, ppn int) machine.Config {
	return machine.Config{Nodes: nodes, ProcsPerNode: ppn}
}

func mustArch(name string) arch.Params {
	a, ok := arch.ByName(name)
	if !ok {
		panic("scenario: unknown architecture " + name)
	}
	return a
}

// renderSMP reproduces Figure 9: the applications with significant
// communication workloads on SMP nodes where all processors on a node
// share one communication interface — the proxy-contention experiment.
func renderSMP(s Spec, opt options, w io.Writer) error {
	sc := specScale(s)
	archs := specArchs(s)
	nodes, ppn, proxies := s.Topology.Nodes, s.Topology.PPN, s.Topology.Proxies

	fmt.Fprintf(w, "Figure 9: speedups on %d SMP nodes x %d compute processors, "+
		"%d proxies/node (relative to T(1) on HW1)\n", nodes, ppn, proxies)
	fmt.Fprintf(w, "  %-12s", "Program")
	for _, a := range archs {
		fmt.Fprintf(w, " %8s", a.Name)
	}
	fmt.Fprintf(w, " %12s %12s %16s\n", "MP1 util", "intra share", "MP1 op lat us")

	for _, spec := range specApps(s) {
		spec := spec
		factory := func() apps.App { return spec.New(sc) }
		ref, err := workload.Run(factory(), mustArch("HW1"), topo(1, 1), opt.workload())
		if err != nil {
			fmt.Fprintf(w, "  %-12s ERROR: %v\n", spec.Name, err)
			continue
		}
		fmt.Fprintf(w, "  %-12s", spec.Name)
		var mp1Util, intraShare, mp1PutUs float64
		for _, a := range archs {
			res, err := workload.Run(factory(), a,
				machine.Config{Nodes: nodes, ProcsPerNode: ppn, ProxiesPerNode: proxies}, opt.workload())
			if err != nil {
				fmt.Fprintf(w, " ERROR:%v", err)
				continue
			}
			fmt.Fprintf(w, " %8.2f", float64(ref.Time)/float64(res.Time))
			if a.Name == "MP1" {
				mp1Util = res.AgentUtil
				if tot := float64(res.Msgs + res.IntraOps); tot > 0 {
					intraShare = float64(res.IntraOps) / tot
				}
				// Report the dominant operation's mean one-way latency.
				var best comm.LatencyStat
				for _, st := range res.Latency {
					if st.Count > best.Count {
						best = st
					}
				}
				mp1PutUs = best.MeanUs
			}
		}
		// The last column shows the dominant operation's mean one-way
		// delivery latency under load: the contention the proxy's queueing
		// adds over the ~12 us quiescent one-way time.
		fmt.Fprintf(w, " %11.1f%% %11.1f%% %15.1f\n", 100*mp1Util, 100*intraShare, mp1PutUs)
	}
	return nil
}
