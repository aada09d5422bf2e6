package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mproxy/internal/kv"
	"mproxy/internal/trace/flight"
	"mproxy/internal/trace/timeline"
	"mproxy/internal/workload/openloop"
)

// renderServing reproduces the open-loop serving experiment: clients on
// every node drive the sharded AM-based KV service through the selected
// multi-switch interconnect while seeded open-loop generators schedule
// arrivals, and each design point's sweep reports per-load tail latency
// plus the saturation knee. With Obs.Forensics set, a flight recorder
// rides every load point (timing-free: request identity travels in the
// high bits of the echoed flags word) and the harvest is written as
// three side-channel files after the sweep.
func renderServing(s Spec, opt options, w io.Writer) error {
	sv := *s.Serving
	label := sv.Topo
	topoName := sv.Topo
	if topoName == "flat" {
		topoName = "" // openloop's single-switch model
	}
	sched := ""
	if s.Topology.ProxySched != "" {
		sched = fmt.Sprintf(" (%s scheduling)", s.Topology.ProxySched)
	}
	fmt.Fprintf(w, "Open-loop KV serving on %s: %d nodes x %d clients, %d proxies/node%s\n",
		label, s.Topology.Nodes, sv.Clients, s.Topology.Proxies, sched)
	fmt.Fprintf(w, "  %d-byte values, scans of %d, replication %d, %d keys (zipf %.2f), %s arrivals\n",
		sv.ValueBytes, sv.ScanCount, sv.Replication, sv.Keys, sv.Theta, sv.Arrival)
	fmt.Fprintf(w, "  %d measured + %d warmup requests per load point; latency measured from the scheduled arrival\n",
		sv.Requests, sv.Warmup)

	var fcfg *flight.Config
	if s.Obs.Forensics != "" {
		fcfg = &flight.Config{TopK: 8}
	}
	var fpoints []flight.NamedPoint
	for _, a := range specArchs(s) {
		theta := sv.Theta
		if theta < 0 {
			theta = 0 // spec sentinel for uniform keys
		}
		res, err := openloop.Run(openloop.Config{
			Arch:            a,
			Nodes:           s.Topology.Nodes,
			Clients:         sv.Clients,
			Proxies:         s.Topology.Proxies,
			ProxySched:      s.Topology.ProxySched,
			Topo:            topoName,
			CommandQueueCap: s.CommandQueueCap,
			ValueBytes:      sv.ValueBytes,
			ScanCount:       sv.ScanCount,
			Replication:     sv.Replication,
			Keys:            sv.Keys,
			Theta:           theta,
			Arrival:         sv.Arrival,
			Requests:        sv.Requests,
			Warmup:          sv.Warmup,
			LoadUs:          sv.LoadUs,
			Seed:            s.Fault.Seed,
			Flight:          fcfg,
		})
		if err != nil {
			return fmt.Errorf("scenario: serving %s: %w", a.Name, err)
		}
		fmt.Fprintf(w, "\n%s:\n", a.Name)
		fmt.Fprintf(w, "  %12s %12s %12s %9s %9s %9s %7s\n",
			"us/client", "offered/s", "achieved/s", "p50 us", "p99 us", "p999 us", "hops")
		var kneePt openloop.Point
		for _, pt := range res.Points {
			fmt.Fprintf(w, "  %12.1f %12.0f %12.0f %9.1f %9.1f %9.1f %7.2f\n",
				pt.LoadUs, pt.OfferedRPS, pt.AchievedRPS,
				pt.Latency.P50Us, pt.Latency.P99Us, pt.Latency.P999Us, pt.MeanHops)
			if pt.LoadUs == res.KneeLoadUs {
				kneePt = pt
			}
			if fcfg != nil && pt.Flight != nil {
				fpoints = append(fpoints, flight.NamedPoint{
					Arch: a.Name, LoadUs: pt.LoadUs, Data: *pt.Flight,
				})
			}
		}
		if len(kneePt.Tiers) > 0 {
			fmt.Fprintf(w, "  tier utilization at the knee:")
			for _, tu := range kneePt.Tiers {
				fmt.Fprintf(w, " %s %.1f%% (%d links)", tu.Tier, 100*tu.Util, tu.Links)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  saturation: %.0f req/s at %g us/client (p99 %.1f us); %d requests issued\n",
			res.SaturationRPS, res.KneeLoadUs, kneePt.Latency.P99Us, res.TotalIssued)
	}
	if fcfg != nil {
		return writeForensics(s, fpoints, w)
	}
	return nil
}

// servingOpName labels flight-record op codes for the forensics report.
func servingOpName(op uint8) string { return kv.Op(op).String() }

// forensicsBase is the basename stem of the three forensics files.
func forensicsBase(s Spec) string {
	base := strings.ReplaceAll(s.Name, "-", "_")
	if base == "" {
		base = "serving"
	}
	return base
}

// writeForensics renders the flight-recorder harvest into the
// Obs.Forensics directory: the deterministic slowest-requests table, the
// per-shard/per-tier windowed series JSON, and a Chrome trace of the
// exemplar (slowest) requests with one track per request and one slice
// per flight segment. Stdout gets a one-line note naming only the
// basenames, so the run manifest's output digest is independent of
// where the directory lives.
func writeForensics(s Spec, points []flight.NamedPoint, w io.Writer) error {
	base := forensicsBase(s)
	dir := s.Obs.Forensics

	var slow strings.Builder
	flight.WriteSlowest(&slow, points, servingOpName)
	if err := os.WriteFile(filepath.Join(dir, base+".slowest.txt"), []byte(slow.String()), 0o644); err != nil {
		return fmt.Errorf("scenario: forensics: %w", err)
	}
	rep, err := flight.ReportJSON(points, servingOpName)
	if err != nil {
		return fmt.Errorf("scenario: forensics: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".flight.json"), rep, 0o644); err != nil {
		return fmt.Errorf("scenario: forensics: %w", err)
	}
	chrome, err := timeline.ChromeSlices("flight exemplars", flightSlices(points))
	if err != nil {
		return fmt.Errorf("scenario: forensics: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".chrome.json"), chrome, 0o644); err != nil {
		return fmt.Errorf("scenario: forensics: %w", err)
	}
	fmt.Fprintf(w, "\nforensics: wrote %s.slowest.txt, %s.flight.json, %s.chrome.json\n", base, base, base)
	return nil
}

// flightSlices converts every point's slowest-request reservoir into
// Chrome trace slices: one track per exemplar, one complete event per
// non-empty flight segment, tiled gaplessly from the scheduled arrival.
func flightSlices(points []flight.NamedPoint) []timeline.Slice {
	var out []timeline.Slice
	for _, np := range points {
		for i := range np.Data.Slowest {
			r := &np.Data.Slowest[i]
			track := fmt.Sprintf("%s @%gus #%02d", np.Arch, np.LoadUs, i+1)
			at := r.ScheduledNs
			for seg := 0; seg < flight.NumSegs; seg++ {
				d := r.Seg[seg]
				if d == 0 {
					continue
				}
				out = append(out, timeline.Slice{
					Track: track, Name: flight.Seg(seg).String(),
					StartNs: at, DurNs: d, Cat: servingOpName(r.Op),
					Args: map[string]any{
						"client": r.Client, "server": r.Server, "shard": r.Shard,
						"hops": r.Hops, "lat_us": float64(r.Latency()) / 1e3,
					},
				})
				at += d
			}
		}
	}
	return out
}
