package scenario

import (
	"fmt"
	"io"

	"mproxy/internal/micro"
)

// renderLoss sweeps the reliable transport across packet-loss rates:
// for each design point it reports small-PUT ping-pong latency and
// streamed large-PUT bandwidth over a seeded lossy wire, plus the
// recovery traffic the transport spent hiding the loss. Rate 0 runs the
// same protocol on a clean wire, so the first row is the pure
// protocol-overhead baseline. Everything is deterministic in
// (archs, seed).
func renderLoss(s Spec, opt options, w io.Writer) error {
	type row struct {
		Arch string `json:"arch"`
		micro.LossPoint
	}
	var rows []row
	for _, a := range specArchs(s) {
		for _, pt := range micro.LossSweep(a, s.Rates, s.Fault.Seed, opt.micro()) {
			rows = append(rows, row{a.Name, pt})
		}
	}

	if s.Out.Format == "csv" {
		fmt.Fprintln(w, "arch,drop_rate,latency_us,bandwidth_mbs,retransmits,acks,lost,failed")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%g,%.2f,%.1f,%d,%d,%d,%t\n",
				r.Arch, r.Rate, r.LatencyUs, r.BWMBs, r.Retransmits, r.AcksSent, r.LinkLost, r.Failed)
		}
	} else {
		fmt.Fprintf(w, "Loss sweep: 64B PUT ping-pong latency and 64KiB streamed-PUT bandwidth\n")
		fmt.Fprintf(w, "over the reliable transport (seed %d); rate 0 is the clean-wire baseline\n\n", s.Fault.Seed)
		fmt.Fprintf(w, "%-6s %10s %12s %10s %8s %8s %6s %s\n",
			"arch", "drop", "latency us", "BW MB/s", "retrans", "acks", "lost", "status")
		for _, r := range rows {
			status := "ok"
			if r.Failed {
				status = "FLOW FAILED"
			}
			fmt.Fprintf(w, "%-6s %10g %12.2f %10.1f %8d %8d %6d %s\n",
				r.Arch, r.Rate, r.LatencyUs, r.BWMBs, r.Retransmits, r.AcksSent, r.LinkLost, status)
		}
	}

	if s.Out.BenchJSON != "" {
		doc := struct {
			Benchmark string `json:"benchmark"`
			Seed      uint64 `json:"seed"`
			Rows      []row  `json:"rows"`
		}{"loss-sweep", s.Fault.Seed, rows}
		if err := writeJSON(s.Out.BenchJSON, doc); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}
	return nil
}
