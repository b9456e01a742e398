package main

import (
	"fmt"
	"time"

	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// failoverConfigs is the sweep every stage runs: the serial single-shard
// reference plus two sharded parallel configurations.
var failoverConfigs = []exp.Config{{Shards: 1}, {Shards: 2, Parallel: true}, {Shards: 5, Parallel: true}}

// checkFailover rejects probes leaked across the failover and defense
// alerts it raised: no attacker is present, so every alert is spurious.
func checkFailover(fo *core.FailoverResult) error {
	if fo.PendingLeaked != 0 {
		return fmt.Errorf("failover leaked %d pending probes", fo.PendingLeaked)
	}
	if fo.FalseAlerts != 0 {
		return fmt.Errorf("failover raised %d spurious defense alerts", fo.FalseAlerts)
	}
	return nil
}

// printFailover runs the clustered control-plane experiment: the
// replica-crash failover under full TOPOGUARD+ (election, role
// handover, state replay, rediscovery, and the LLI's re-learn window),
// then the attack matrix under partitioned controller views. Both
// stages run the full shard/parallel sweep and must be byte-identical
// to the serial reference; the failover must leak zero probes and raise
// zero spurious alerts.
func printFailover(seed int64, outPath string) error {
	header("FAILOVER: controller replica crash and partitioned-view matrix")
	rep := report{
		Experiment: "failover",
		Seed:       seed,
		Note: "Failover and matrix results are produced on the virtual clock and verified " +
			"byte-identical across the shard/parallel sweep before this file is written; " +
			"wall rows are host-dependent. lli_blind_window_ns is the crash-to-relearn " +
			"window during which the surviving master has no control-RTT baselines for " +
			"the re-homed switches and records latency measurements unenforced.",
	}

	failovers, err := sweep(&rep, "failover", failoverConfigs, func(cfg exp.Config) (*core.FailoverResult, string, error) {
		res, err := core.RunFailover(seed, cfg.Shards, cfg.Parallel)
		if err != nil {
			return nil, "", err
		}
		return res, res.MetricsProm, nil
	})
	if err != nil {
		return err
	}
	fo := failovers[0]
	if err := checkFailover(fo); err != nil {
		return err
	}
	fmt.Println("replica 1 (master of switches 3-4) crashed under full TOPOGUARD+:")
	for _, line := range fo.Timeline {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("reconvergence        : %s\n", time.Duration(fo.ReconvergenceNs).Truncate(time.Microsecond))
	fmt.Printf("LLI blind window     : %s\n", time.Duration(fo.BlindWindowNs).Truncate(time.Microsecond))
	fmt.Printf("replayed state       : %d links, %d hosts\n", fo.ReplayedLinks, fo.ReplayedHosts)
	fmt.Printf("pending probes leaked: %d\n", fo.PendingLeaked)
	fmt.Printf("spurious alerts      : %d\n", fo.FalseAlerts)

	matrices, err := sweep(&rep, "matrix", failoverConfigs, func(cfg exp.Config) (*core.PartitionMatrixResult, string, error) {
		res, err := core.RunPartitionedMatrix(seed, cfg.Shards, cfg.Parallel)
		if err != nil {
			return nil, "", err
		}
		return res, res.MetricsProm, nil
	})
	if err != nil {
		return err
	}
	rep.Results = map[string]any{"failover": fo, "partitioned_matrix": matrices[0]}
	fmt.Println("\npartitioned-view matrix (switches 1-2 on replica 0, 3-4 on replica 1):")
	fmt.Printf("%-45s %-11s %-11s %-11s %s\n", "Attack", "Replicated", "Fabricated", "Verdict", "Detected by")
	for _, row := range matrices[0].Rows {
		by := "-"
		if len(row.DetectedBy) > 0 {
			by = fmt.Sprint(row.DetectedBy)
		}
		fmt.Printf("%-45s %-11v %-11v %-11s %s\n", row.Attack, row.Replicated, row.Fabricated, row.Verdict, by)
	}

	fmt.Println()
	fmt.Printf("%-10s %-8s %-10s %s\n", "Stage", "Shards", "Parallel", "Wall")
	for _, w := range rep.Wall {
		fmt.Printf("%-10s %-8d %-10v %s\n", w.Stage, w.Shards, w.Parallel, w.wall())
	}
	fmt.Println("deterministic surface and merged metrics byte-identical across the shard/parallel sweep")
	return rep.write(outPath)
}
