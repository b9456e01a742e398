package core

import (
	"testing"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/exp"
)

// Seed-sweep gates: properties of the LLI's fence that must hold on
// every seed, not only on the one a snapshot pins. A fence fault shows
// up on a few seeds in a hundred, so each gate runs many cheap seeds
// through exp.Grid.

// TestDetectionSweepNoFalseEvictions: on the quiet k=4 detection fabric
// no protocol may evict a live link. Benign micro-bursts and the
// bootstrap round before the first control-RTT estimate must neither
// veto two refreshes of one link in a row nor inflate the fence.
func TestDetectionSweepNoFalseEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	type trial struct {
		seed  int64
		proto controller.DiscoveryProtocol
	}
	var trials []trial
	for seed := int64(1); seed <= 30; seed++ {
		for _, proto := range []controller.DiscoveryProtocol{controller.DiscoveryOFDP, controller.DiscoverySOFTDP} {
			trials = append(trials, trial{seed, proto})
		}
	}
	results, err := exp.Grid(trials, 0, func(tr trial) (*DiscoveryDetectionResult, error) {
		return RunDiscoveryDetection(tr.seed, tr.proto)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.FalseEvictions != 0 {
			t.Errorf("seed %d %s: %d false evictions", trials[i].seed, res.Protocol, res.FalseEvictions)
		}
	}
}

// TestFabricationSweepBlocked: both out-of-band link fabrications are
// blocked by TOPOGUARD+ and by the full stack on every seed. A fence
// inflated by bootstrap measurements would let the relayed link's
// probes through and read detected or undetected instead.
func TestFabricationSweepBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	type trial struct {
		attack string
		cfg    attack.FabricationConfig
		stack  string
		col    matrixColumn
		seed   int64
	}
	attacks := []struct {
		name string
		cfg  attack.FabricationConfig
	}{
		{"naive", attack.FabricationConfig{}},
		{"OOB amnesia", attack.FabricationConfig{UseAmnesia: true}},
	}
	stacks := []struct {
		name string
		col  matrixColumn
	}{
		{"TOPOGUARD+", matrixColumn{def: TopoGuardPlus()}},
		{"full", matrixColumn{def: FullStack()}},
	}
	var trials []trial
	for _, a := range attacks {
		for _, s := range stacks {
			for seed := int64(1); seed <= 400; seed++ {
				trials = append(trials, trial{a.name, a.cfg, s.name, s.col, seed})
			}
		}
	}
	results, err := exp.Grid(trials, 0, func(tr trial) (cellResult, error) {
		return fabricationCell(tr.cfg)(tr.col, tr.seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if tr := trials[i]; res.verdict != Blocked {
			t.Errorf("%s vs %s, seed %d: %s, want %s", tr.attack, tr.stack, tr.seed, res.verdict, Blocked)
		}
	}
}
