package scenario

import (
	"fmt"
	"io"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/workload"
)

// specScale resolves the (validated, normalized) spec's problem scale.
func specScale(s Spec) registry.Scale {
	return map[string]registry.Scale{"test": registry.Test, "small": registry.Small, "full": registry.Full}[s.Scale]
}

// specApps resolves the spec's application selection.
func specApps(s Spec) []registry.Spec {
	out := make([]registry.Spec, 0, len(s.Apps))
	for _, name := range s.Apps {
		spec, _ := registry.ByName(name)
		out = append(out, spec)
	}
	return out
}

// renderAppsList prints Table 5: the application suite and its inputs.
func renderAppsList(s Spec, w io.Writer) error {
	sc := specScale(s)
	fmt.Fprintln(w, "Table 5: applications and input parameters")
	fmt.Fprintf(w, "  %-12s %-10s %s\n", "Program", "Model", "Input ("+sc.String()+" scale)")
	for _, spec := range specApps(s) {
		fmt.Fprintf(w, "  %-12s %-10s %s\n", spec.Name, spec.Model, spec.Inputs[sc])
	}
	return nil
}

// figure8Cell is one matrix entry of the JSON emission.
type figure8Cell struct {
	App     string  `json:"app"`
	Arch    string  `json:"arch"`
	Procs   int     `json:"procs"`
	TimeMs  float64 `json:"time_ms"`
	Speedup float64 `json:"speedup"`
}

// renderFigure8 runs the speedup matrix and prints the Figure 8 tables
// (or CSV).
func renderFigure8(s Spec, opt options, w io.Writer) error {
	sc := specScale(s)
	archs := specArchs(s)
	csv := s.Out.Format == "csv"
	if csv {
		fmt.Fprintln(w, "app,arch,procs,time_ms,speedup")
	} else {
		fmt.Fprintln(w, "Figure 8: application speedups relative to T(1) on HW1")
	}
	var cells []figure8Cell
	for _, spec := range specApps(s) {
		spec := spec
		factory := func() apps.App { return spec.New(sc) }
		curves, err := workload.SpeedupsJ(factory, archs, s.Procs, "HW1", s.Jobs, opt.workload())
		if err != nil {
			fmt.Fprintf(w, "%s: ERROR: %v\n", spec.Name, err)
			continue
		}
		for _, c := range curves {
			for i, p := range c.Procs {
				cells = append(cells, figure8Cell{c.App, c.Arch, p, c.Times[i].Millis(), c.Speedup[i]})
			}
		}
		if csv {
			for _, c := range curves {
				for i, p := range c.Procs {
					fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f\n", c.App, c.Arch, p, c.Times[i].Millis(), c.Speedup[i])
				}
			}
			continue
		}
		fmt.Fprintf(w, "\n%s (%s, %s)\n", spec.Name, spec.Model, spec.Inputs[sc])
		fmt.Fprintf(w, "  %-6s", "procs")
		for _, c := range curves {
			fmt.Fprintf(w, " %8s", c.Arch)
		}
		fmt.Fprintln(w)
		for pi, p := range s.Procs {
			fmt.Fprintf(w, "  %-6d", p)
			for _, c := range curves {
				fmt.Fprintf(w, " %8.2f", c.Speedup[pi])
			}
			fmt.Fprintln(w)
		}
	}
	if s.Out.BenchJSON == "" {
		return nil
	}
	doc := struct {
		Benchmark string        `json:"benchmark"`
		Scale     string        `json:"scale"`
		Cells     []figure8Cell `json:"cells"`
	}{"figure8", sc.String(), cells}
	if err := writeJSON(s.Out.BenchJSON, doc); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	return nil
}

// renderTable6 prints the message statistics at 16 processors.
func renderTable6(s Spec, opt options, w io.Writer) error {
	sc := specScale(s)
	const nprocs = 16
	fmt.Fprintf(w, "Table 6: message sizes, rates and interface utilization on %d processors\n", nprocs)
	fmt.Fprintf(w, "  %-12s %-5s %10s %10s %10s %10s\n",
		"Program", "Arch", "AvgSize B", "Rate op/ms", "AgentUtil", "CPUStolen")
	for _, spec := range specApps(s) {
		for _, aname := range []string{"HW1", "MP1", "SW1"} {
			a, _ := arch.ByName(aname)
			res, err := workload.Run(spec.New(sc), a, topo(nprocs, 1), opt.workload())
			if err != nil {
				fmt.Fprintf(w, "  %-12s %-5s ERROR: %v\n", spec.Name, aname, err)
				continue
			}
			fmt.Fprintf(w, "  %-12s %-5s %10.0f %10.2f %9.1f%% %9.1f%%\n",
				spec.Name, aname, res.AvgMsgSize, res.MsgRate, 100*res.AgentUtil, 100*res.CPUStolen)
		}
	}
	return nil
}
