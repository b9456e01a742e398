package main

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// dosConfigs is the shard/parallel sweep every variant runs: the serial
// single-shard reference plus the most adversarial sharded configuration.
var dosConfigs = []exp.Config{{Shards: 1}, {Shards: 2, Parallel: true}}

// checkDoS rejects auto-blocks on legitimate traffic.
func checkDoS(r *core.DoSResult) error {
	if r.FalseBlocks != 0 {
		return fmt.Errorf("%s: %d false blocks on legitimate traffic", r.Variant, r.FalseBlocks)
	}
	return nil
}

// printDoS runs the distributed-DoS experiment: both flood variants on
// the k-ary fat-tree under the full defense stack, each at every shard
// configuration. It asserts the deterministic surface (detection
// timeline, block classification, traffic totals, merged metrics) is
// identical across configurations, enforces the optional kernel
// throughput floor, and optionally writes the report.
func printDoS(seed int64, k int, floor float64, outPath string) error {
	header(fmt.Sprintf("DOS: distributed floods vs rate monitor on the k=%d fat-tree", k))
	rep := report{
		Experiment: "dos",
		Seed:       seed,
		Note: "Results are produced on the virtual clock and verified byte-identical " +
			"across the shard/parallel sweep before this file is written; wall rows are " +
			"host-dependent. false_blocks counts auto-blocks on ports that are neither " +
			"attacker ports nor the victim's own (backscatter) port — the legitimate " +
			"generator and its mid-run burst run through the whole attack.",
	}

	var refs []*core.DoSResult
	for _, variant := range []attack.DoSVariant{attack.SYNFlood, attack.LinkSaturation} {
		first := len(rep.Wall)
		results, err := sweep(&rep, variant.String(), dosConfigs, func(cfg exp.Config) (*core.DoSResult, string, error) {
			res, err := core.RunDoS(seed, k, cfg.Shards, cfg.Parallel, variant)
			if err != nil {
				return nil, "", err
			}
			return res, res.MetricsProm, nil
		})
		if err != nil {
			return err
		}
		// Executed events are shard-count invariant, so the reference's
		// count rates every run of the sweep.
		ref := results[0]
		for i := first; i < len(rep.Wall); i++ {
			w := &rep.Wall[i]
			w.EventsPerSec = float64(ref.Events) / w.WallSeconds
			if floor > 0 && w.EventsPerSec < floor {
				return fmt.Errorf("%s: shards=%d parallel=%v: %.0f events/s below the %.0f floor",
					variant, w.Shards, w.Parallel, w.EventsPerSec, floor)
			}
		}
		if err := checkDoS(ref); err != nil {
			return err
		}
		refs = append(refs, ref)
	}
	rep.Results = refs

	fmt.Printf("%-12s %-10s %-16s %-24s %-10s %s\n",
		"Variant", "Attackers", "Detection", "Blocks (atk/victim/false)", "Reblocked", "False-block rate")
	for _, r := range refs {
		falseRate := 0.0
		if r.Blocks > 0 {
			falseRate = float64(r.FalseBlocks) / float64(r.Blocks)
		}
		fmt.Printf("%-12s %-10d %-16s %-24s %-10d %.3f\n",
			r.Variant, r.Attackers, r.DetectionLatency.Truncate(time.Millisecond),
			fmt.Sprintf("%d (%d/%d/%d)", r.Blocks, r.AttackerBlocks, r.VictimBlocks, r.FalseBlocks),
			r.Reblocked, falseRate)
	}
	fmt.Println()
	fmt.Printf("%-12s %-8s %-10s %-12s %s\n", "Variant", "Shards", "Parallel", "Wall", "Events/s")
	for _, w := range rep.Wall {
		fmt.Printf("%-12s %-8d %-10v %-12s %.0f\n",
			w.Stage, w.Shards, w.Parallel, w.wall(), w.EventsPerSec)
	}
	fmt.Println("deterministic surface and merged metrics byte-identical across the shard/parallel sweep")
	return rep.write(outPath)
}
