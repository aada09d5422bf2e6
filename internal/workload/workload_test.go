package workload

import (
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/machine"
)

// These tests pin the paper's headline qualitative results at Test scale;
// they are the regression suite for the Figure 8 / Figure 9 shapes.

func run(t *testing.T, name string, a arch.Params, nodes, ppn int) Result {
	t.Helper()
	spec, err := registry.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec.New(registry.Test), a, machine.Config{Nodes: nodes, ProcsPerNode: ppn}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestArchitectureOrderingOnCommIntensiveApps(t *testing.T) {
	// Paper, Section 5.3: on the communication-intensive applications,
	// execution time orders HW1 < MP2 < MP1 < SW1.
	for _, app := range []string{"Wator", "Water", "Sample"} {
		hw := run(t, app, arch.HW1, 4, 1).Time
		mp2 := run(t, app, arch.MP2, 4, 1).Time
		mp1 := run(t, app, arch.MP1, 4, 1).Time
		sw := run(t, app, arch.SW1, 4, 1).Time
		if !(hw <= mp2 && mp2 <= mp1 && mp1 <= sw) {
			t.Errorf("%s: ordering violated: HW1=%v MP2=%v MP1=%v SW1=%v",
				app, hw, mp2, mp1, sw)
		}
	}
}

func TestBandwidthAppsInsensitive(t *testing.T) {
	// Moldy (bulk broadcasts) stays close to custom hardware — the
	// paper's "message proxies match custom hardware" class — while the
	// communication-intensive apps diverge far more at the same scale.
	hw := run(t, "Moldy", arch.HW1, 4, 1).Time
	mp := run(t, "Moldy", arch.MP1, 4, 1).Time
	sw := run(t, "Moldy", arch.SW1, 4, 1).Time
	if float64(mp)/float64(hw) > 1.25 {
		t.Errorf("Moldy MP1/HW1 = %.2f, want < 1.25", float64(mp)/float64(hw))
	}
	if float64(sw)/float64(hw) > 1.5 {
		t.Errorf("Moldy SW1/HW1 = %.2f, want < 1.5", float64(sw)/float64(hw))
	}
	// ...and far tighter than the fine-grained Sample at the same scale.
	hwS := run(t, "Sample", arch.HW1, 4, 1).Time
	swS := run(t, "Sample", arch.SW1, 4, 1).Time
	if float64(sw)/float64(hw) > float64(swS)/float64(hwS) {
		t.Errorf("Moldy more SW-sensitive (%.2f) than Sample (%.2f)",
			float64(sw)/float64(hw), float64(swS)/float64(hwS))
	}
}

func TestSpeedupsHelper(t *testing.T) {
	spec, err := registry.ByName("Moldy")
	if err != nil {
		t.Fatal(err)
	}
	curves, err := SpeedupsJ(func() apps.App { return spec.New(registry.Test) },
		[]arch.Params{arch.HW1, arch.MP1}, []int{1, 2, 4}, "HW1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || len(curves[0].Speedup) != 3 {
		t.Fatalf("curves = %+v", curves)
	}
	// HW1 self-relative speedup at 1 proc is exactly 1.
	if s := curves[0].Speedup[0]; s < 0.999 || s > 1.001 {
		t.Errorf("T(1)/T(1) = %v", s)
	}
	// Speedup grows with processors.
	if !(curves[0].Speedup[2] > curves[0].Speedup[0]) {
		t.Errorf("no speedup: %v", curves[0].Speedup)
	}
	if _, err := SpeedupsJ(nil, nil, nil, "XXX", 1, Options{}); err == nil {
		t.Error("unknown reference arch must fail")
	}
}

func TestSMPContentionRaisesProxyUtilization(t *testing.T) {
	// Figure 9: four compute processors sharing one proxy push its
	// utilization well above the uniprocessor-node configuration.
	uni := run(t, "Water", arch.MP1, 4, 1)
	smp := run(t, "Water", arch.MP1, 1, 4)
	_ = smp
	smp4 := run(t, "Water", arch.MP1, 2, 4)
	if smp4.AgentUtil <= uni.AgentUtil {
		t.Errorf("SMP proxy util %.2f not above uniprocessor-node %.2f",
			smp4.AgentUtil, uni.AgentUtil)
	}
	// Intra-node traffic exists only with multiple processors per node.
	if uni.IntraOps != 0 {
		t.Errorf("uniprocessor nodes recorded intra ops: %d", uni.IntraOps)
	}
	if smp4.IntraOps == 0 {
		t.Error("SMP nodes recorded no intra-node communication")
	}
}

func TestSWStealsComputeCycles(t *testing.T) {
	res := run(t, "Water", arch.SW1, 4, 1)
	if res.CPUStolen <= 0 {
		t.Error("SW1 run recorded no interrupt-stolen cycles")
	}
	if res.AgentUtil != 0 {
		t.Error("SW1 has no communication agent")
	}
	hw := run(t, "Water", arch.HW1, 4, 1)
	if hw.CPUStolen != 0 {
		t.Error("HW1 must not steal compute cycles")
	}
}

func TestResultTrafficFields(t *testing.T) {
	res := run(t, "Wator", arch.MP1, 2, 1)
	if res.Msgs <= 0 || res.AvgMsgSize <= 0 || res.MsgRate <= 0 {
		t.Errorf("traffic stats empty: %+v", res)
	}
	if res.Procs() != 2 {
		t.Errorf("procs = %d", res.Procs())
	}
	// Wator's dominant message is the 32-byte fish record.
	if res.AvgMsgSize > 64 {
		t.Errorf("Wator avg msg size = %.0f, want small", res.AvgMsgSize)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, "Sample", arch.MP2, 4, 1)
	b := run(t, "Sample", arch.MP2, 4, 1)
	if a.Time != b.Time || a.Msgs != b.Msgs || a.AgentUtil != b.AgentUtil {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMultipleProxiesRelieveContention(t *testing.T) {
	// Section 5.4: "multiple message proxies may help". On an overloaded
	// 4-processor node, two proxies must cut peak proxy utilization and
	// not slow the program down.
	spec, err := registry.ByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(spec.New(registry.Test), arch.MP1,
		machine.Config{Nodes: 2, ProcsPerNode: 4, ProxiesPerNode: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(spec.New(registry.Test), arch.MP1,
		machine.Config{Nodes: 2, ProcsPerNode: 4, ProxiesPerNode: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if two.AgentUtil >= one.AgentUtil {
		t.Errorf("2 proxies did not reduce peak utilization: %.2f vs %.2f",
			two.AgentUtil, one.AgentUtil)
	}
	if two.Time > one.Time {
		t.Errorf("2 proxies slowed the run: %v vs %v", two.Time, one.Time)
	}
}
