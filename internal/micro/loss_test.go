package micro

import (
	"testing"

	"mproxy/internal/arch"
)

func TestLossSweepDeterministicAndDegrading(t *testing.T) {
	rates := []float64{0, 1e-2}
	a := LossSweep(arch.MP1, rates, 3, Options{})
	b := LossSweep(arch.MP1, rates, 3, Options{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not deterministic at rate %g: %+v vs %+v", rates[i], a[i], b[i])
		}
	}
	clean, lossy := a[0], a[1]
	if clean.Retransmits != 0 || clean.LinkLost != 0 || clean.Failed {
		t.Errorf("rate 0 shows loss artifacts: %+v", clean)
	}
	if lossy.Retransmits == 0 || lossy.LinkLost == 0 {
		t.Errorf("rate 1e-2 shows no loss: %+v", lossy)
	}
	if lossy.Failed {
		t.Errorf("rate 1e-2 killed a flow: %+v", lossy)
	}
	if lossy.LatencyUs <= clean.LatencyUs {
		t.Errorf("latency did not degrade: clean %.2fus, lossy %.2fus", clean.LatencyUs, lossy.LatencyUs)
	}
	// Streamed bandwidth can hide mid-stream recovery entirely (the link
	// has slack over the DMA bottleneck), so loss must never *improve* it.
	if lossy.BWMBs > clean.BWMBs {
		t.Errorf("bandwidth improved under loss: clean %.1f, lossy %.1f MB/s", clean.BWMBs, lossy.BWMBs)
	}
}

func TestLossSweepSeedSensitivity(t *testing.T) {
	a := LossSweep(arch.HW1, []float64{5e-3}, 1, Options{})[0]
	b := LossSweep(arch.HW1, []float64{5e-3}, 2, Options{})[0]
	if a == b {
		t.Errorf("different seeds produced identical sweeps: %+v", a)
	}
}
