package main

import (
	"fmt"
	"strings"

	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// checkDetection enforces the link-failure detection claims: sOFTDP
// detects a dead trunk faster than OFDP and within OFDP's link timeout,
// neither protocol evicts a live link, and both rediscover the repaired
// trunk.
func checkDetection(ofdp, softdp *core.DiscoveryDetectionResult) error {
	if softdp.Detection >= ofdp.Detection {
		return fmt.Errorf("softdp detection %v not faster than ofdp %v", softdp.Detection, ofdp.Detection)
	}
	if softdp.Detection > controller.Floodlight.LinkTimeout {
		return fmt.Errorf("softdp detection %v exceeds the OFDP link timeout %v",
			softdp.Detection, controller.Floodlight.LinkTimeout)
	}
	for _, r := range []*core.DiscoveryDetectionResult{ofdp, softdp} {
		if r.FalseEvictions != 0 {
			return fmt.Errorf("%s evicted %d live links", r.Protocol, r.FalseEvictions)
		}
	}
	if !softdp.Recovered || !ofdp.Recovered {
		return fmt.Errorf("repaired trunk not rediscovered (ofdp=%v softdp=%v)",
			ofdp.Recovered, softdp.Recovered)
	}
	return nil
}

// printDiscovery runs the discovery-protocol experiment: steady-state
// load OFDP vs sOFTDP across fat-tree arities, link-failure detection
// latency (timeout sweep vs BFD watch), the sOFTDP shard byte-identity
// sweep, and the attack matrix under the protocol dimension. It enforces
// the headline claims — sOFTDP emits strictly fewer steady-state probes
// at every arity and at least 10x fewer at k>=16, detects a dead trunk
// faster than OFDP's link timeout, and neither protocol evicts a live
// link — and errors out if any fails, so CI can gate on the exit status.
func printDiscovery(seed int64, kcsv, outPath string) error {
	ks, err := parseInts(kcsv)
	if err != nil {
		return fmt.Errorf("-discoveryk: %w", err)
	}
	rep := report{
		Experiment: "discovery",
		Seed:       seed,
		Note: "Steady-state load is measured over a 150 s window after a 400 s settle " +
			"(sOFTDP's refresh backoff reaches its 150 s cap) on a quiescent fat-tree with " +
			"no defenses and no host traffic. Detection kills a trunk silently (loss=1.0, " +
			"no Port-Status) under TOPOGUARD+. The identity result is verified byte-identical " +
			"across the shard/parallel sweep before this file is written. Wall rows are " +
			"the only host-dependent content.",
	}
	var loads []*core.DiscoveryLoadResult

	header("DISCOVERY: steady-state load, OFDP sweep vs event-driven sOFTDP")
	fmt.Printf("%-4s %-8s %-9s %-7s %-7s %-12s %-12s %-12s %s\n",
		"k", "proto", "switches", "ports", "links", "probes/s", "bytes/s", "events/s", "sessions")
	for _, k := range ks {
		var ofdp, softdp *core.DiscoveryLoadResult
		for _, proto := range []controller.DiscoveryProtocol{controller.DiscoveryOFDP, controller.DiscoverySOFTDP} {
			res, err := core.RunDiscoveryLoad(seed, k, proto)
			if err != nil {
				return err
			}
			fmt.Printf("%-4d %-8s %-9d %-7d %-7d %-12.1f %-12.1f %-12.1f %d\n",
				res.K, res.Protocol, res.Switches, res.Ports, res.DirectedLinks,
				res.ProbesPerSec, float64(res.ProbeBytes)/res.MeasureVirtual.Seconds(),
				res.EventsPerSec, res.BFDSessions)
			loads = append(loads, res)
			rep.addWall(fmt.Sprintf("load k=%d %s", res.K, res.Protocol), exp.Config{Shards: 1}, res.Wall)
			if proto == controller.DiscoveryOFDP {
				ofdp = res
			} else {
				softdp = res
			}
		}
		if softdp.Probes >= ofdp.Probes {
			return fmt.Errorf("k=%d: softdp emitted %d probes vs ofdp %d — event-driven discovery must probe less",
				k, softdp.Probes, ofdp.Probes)
		}
		if softdp.Events >= ofdp.Events {
			return fmt.Errorf("k=%d: softdp executed %d kernel events vs ofdp %d", k, softdp.Events, ofdp.Events)
		}
		ratio := float64(ofdp.Probes) / float64(softdp.Probes)
		fmt.Printf("     -> softdp probe reduction %.1fx, event reduction %.1fx\n",
			ratio, float64(ofdp.Events)/float64(softdp.Events))
		if k >= 16 && ratio < 10 {
			return fmt.Errorf("k=%d: softdp probe reduction %.1fx, want >= 10x", k, ratio)
		}
	}

	header("DISCOVERY: link-failure detection (silent trunk death, TOPOGUARD+)")
	fmt.Printf("%-8s %-16s %-24s %-8s %-10s %s\n",
		"proto", "detection", "reasons", "false", "recovered", "recovery")
	var det [2]*core.DiscoveryDetectionResult
	for i, proto := range []controller.DiscoveryProtocol{controller.DiscoveryOFDP, controller.DiscoverySOFTDP} {
		res, err := core.RunDiscoveryDetection(seed, proto)
		if err != nil {
			return err
		}
		det[i] = res
		fmt.Printf("%-8s %-16s %-24s %-8d %-10v %s\n",
			res.Protocol, ms(res.Detection), strings.Join(res.EvictionReasons, ","),
			res.FalseEvictions, res.Recovered, ms(res.Recovery))
	}
	if err := checkDetection(det[0], det[1]); err != nil {
		return err
	}

	header("DISCOVERY: sOFTDP shard byte-identity (k=4 fat-tree, churn scenario)")
	idRows, err := core.RunDiscoveryByteIdentity(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s %-9s %-12s %-7s %s\n", "shards", "parallel", "events", "leaked", "wall")
	for _, r := range idRows {
		fmt.Printf("%-7d %-9v %-12d %-7d %.2fs\n", r.Shards, r.Parallel, r.Events, r.Leaked, r.Wall.Seconds())
		rep.addWall("identity", exp.Config{Shards: r.Shards, Parallel: r.Parallel}, r.Wall)
	}
	fmt.Println("sOFTDP churn scenario byte-identical across the shard/parallel sweep.")

	header("DISCOVERY: attack matrix under the protocol dimension")
	rows, err := core.RunDiscoveryMatrix(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-48s %-12s %-14s %s\n", "Attack", "OFDP+full", "sOFTDP+full", "sOFTDP+none")
	for _, r := range rows {
		fmt.Printf("%-48s %-12s %-14s %s\n", r.Attack, r.OFDPFullStack, r.SOFTDPFullStack, r.SOFTDPNoDefenses)
	}
	rep.Results = map[string]any{"load": loads, "detection": det, "identity": idRows[0], "matrix": rows}
	return rep.write(outPath)
}
