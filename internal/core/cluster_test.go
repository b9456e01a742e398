package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// TestClusterFailover pins the headline failover invariants: the crash
// of the master of switches 3-4 under full TOPOGUARD+ reconverges
// deterministically with zero leaked probes and zero spurious alerts,
// and the LLI blind window is measured.
func TestClusterFailover(t *testing.T) {
	res, err := core.RunFailover(21, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PendingLeaked != 0 {
		t.Errorf("pending probes leaked: %d", res.PendingLeaked)
	}
	if res.FalseAlerts != 0 {
		t.Errorf("spurious alerts during failover: %d", res.FalseAlerts)
	}
	if res.Links != 6 {
		t.Errorf("winner sees %d links, want 6", res.Links)
	}
	if !(res.ElectionNs > 0 && res.HandoverNs > res.ElectionNs && res.ReconvergenceNs > res.HandoverNs) {
		t.Errorf("failover offsets out of order: election=%d handover=%d reconverge=%d",
			res.ElectionNs, res.HandoverNs, res.ReconvergenceNs)
	}
	if res.ReconvergenceNs > int64(3*time.Second) {
		t.Errorf("reconvergence %v not bounded by 3s", time.Duration(res.ReconvergenceNs))
	}
	// The LLI must go blind on the re-homed switches for at least the
	// handover (it cannot have estimates before it masters them) and
	// re-learn within one probe interval plus slack.
	if res.BlindWindowNs < res.HandoverNs {
		t.Errorf("blind window %v ends before the handover %v",
			time.Duration(res.BlindWindowNs), time.Duration(res.HandoverNs))
	}
	if res.BlindWindowNs > int64(5*time.Second) {
		t.Errorf("LLI blind window %v, want < 5s", time.Duration(res.BlindWindowNs))
	}
	if res.ReplayedLinks != 6 {
		t.Errorf("replayed %d links into the winner, want 6", res.ReplayedLinks)
	}
	if len(res.Timeline) != 6 {
		t.Errorf("timeline = %v, want 6 entries", res.Timeline)
	}
	if !strings.Contains(res.MetricsProm, "cluster_failover_ns") {
		t.Error("merged metrics missing cluster_failover_ns")
	}
	t.Logf("timeline: %v", res.Timeline)
}

// TestClusterFailoverByteIdentical: the failover result row and the
// merged metrics snapshot are byte-identical across shard counts and
// serial/parallel execution.
func TestClusterFailoverByteIdentical(t *testing.T) {
	_, err := exp.Equivalent(clusterSweep, func(cfg exp.Config) (*core.FailoverResult, string, error) {
		res, err := core.RunFailover(21, cfg.Shards, cfg.Parallel)
		if err != nil {
			return nil, "", err
		}
		return res, res.MetricsProm, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// clusterSweep is the serial reference plus two sharded parallel
// configurations.
var clusterSweep = []exp.Config{{Shards: 1}, {Shards: 2, Parallel: true}, {Shards: 5, Parallel: true}}

// TestPartitionedMatrix pins the partitioned-view attack matrix: the
// LLI cannot enforce on links whose endpoints answer to different
// masters (control-RTT baselines are local, not replicated), so OOB
// amnesia fabricates undetected under BOTH modes — the measured
// divergence. The CMM survives partitioning only through the replicated
// port-status log: replicated it blocks the in-band relay, isolated the
// cross-master evidence (and the relay's dataplane path) is gone. The
// rate monitor is purely local to each master's ingress ports and
// blocks the floods regardless of replication.
func TestPartitionedMatrix(t *testing.T) {
	res, err := core.RunPartitionedMatrix(33, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	type expect struct {
		verdict    core.Verdict
		fabricated bool
		by         string // required DetectedBy entry ("" = none)
	}
	wants := []expect{
		{core.Undetected, true, ""},      // OOB amnesia, replicated: LLI blind cross-master
		{core.Undetected, true, ""},      // OOB amnesia, isolated
		{core.Blocked, false, "CMM"},     // in-band amnesia, replicated: CMM has the log
		{core.Failed, false, ""},         // in-band amnesia, isolated: relay path gone
		{core.Blocked, false, "RATEMON"}, // SYN flood, replicated
		{core.Blocked, false, "RATEMON"}, // SYN flood, isolated
		{core.Blocked, false, "RATEMON"}, // link saturation, replicated
		{core.Blocked, false, "RATEMON"}, // link saturation, isolated
	}
	for i, row := range res.Rows {
		t.Logf("%-45s replicated=%-5v fabricated=%-5v verdict=%-10s by=%v",
			row.Attack, row.Replicated, row.Fabricated, row.Verdict, row.DetectedBy)
		w := wants[i]
		if row.Verdict != w.verdict {
			t.Errorf("row %d (%s replicated=%v): verdict = %s, want %s",
				i, row.Attack, row.Replicated, row.Verdict, w.verdict)
		}
		if row.Fabricated != w.fabricated {
			t.Errorf("row %d (%s replicated=%v): fabricated = %v, want %v",
				i, row.Attack, row.Replicated, row.Fabricated, w.fabricated)
		}
		if w.by != "" {
			found := false
			for _, d := range row.DetectedBy {
				if d == w.by {
					found = true
				}
			}
			if !found {
				t.Errorf("row %d (%s replicated=%v): detected by %v, want %s",
					i, row.Attack, row.Replicated, row.DetectedBy, w.by)
			}
		}
	}
}

// TestPartitionedMatrixByteIdentical: the full partitioned matrix —
// rows and the concatenated merged metrics surface — is byte-identical
// across the shard/parallel sweep.
func TestPartitionedMatrixByteIdentical(t *testing.T) {
	_, err := exp.Equivalent(clusterSweep, func(cfg exp.Config) (*core.PartitionMatrixResult, string, error) {
		res, err := core.RunPartitionedMatrix(33, cfg.Shards, cfg.Parallel)
		if err != nil {
			return nil, "", err
		}
		return res, res.MetricsProm, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// nonceLog records the origin port of each timestamped LLDP probe a
// controller receives, keyed by the probe's AES-GCM nonce.
type nonceLog struct {
	origin map[string]controller.PortRef
	reused int
}

func (l *nonceLog) ModuleName() string { return "test/nonce-log" }

func (l *nonceLog) InterceptPacketIn(ev *controller.PacketInEvent) bool {
	const nonceSize = 12 // the standard GCM nonce
	if ev.LLDP == nil || len(ev.LLDP.Timestamp) < nonceSize {
		return true
	}
	nonce := string(ev.LLDP.Timestamp[:nonceSize])
	origin := controller.PortRef{DPID: ev.LLDP.ChassisID, Port: ev.LLDP.PortID}
	if prev, seen := l.origin[nonce]; !seen {
		l.origin[nonce] = origin
	} else if prev != origin {
		l.reused++
	}
	return true
}

// TestReplicasShareOneKeychain pins the rule of one LLDP keychain per
// network: a cluster's replicas hold the same keychain, so no AES-GCM
// nonce is sealed twice under their shared keys. Two keychains from one
// secret each count nonces from 0, and replicas probing their own
// switches then seal different timestamps under the same nonce.
func TestReplicasShareOneKeychain(t *testing.T) {
	check := func(t *testing.T, ctls []*controller.Controller, run func(time.Duration) error) {
		log := &nonceLog{origin: map[string]controller.PortRef{}}
		for _, ctl := range ctls {
			ctl.Register(log)
		}
		if err := run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		kc := ctls[0].Keychain()
		for i, ctl := range ctls {
			if kc == nil || ctl.Keychain() != kc {
				t.Errorf("replica %d holds keychain %p, replica 0 holds %p", i, ctl.Keychain(), kc)
			}
		}
		if len(log.origin) == 0 {
			t.Fatal("no timestamped probe was received")
		}
		if log.reused != 0 {
			t.Errorf("%d nonces sealed for two origins across %d received nonces", log.reused, len(log.origin))
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("cluster-fig9/%d-shards", shards), func(t *testing.T) {
			s := core.NewClusterFig9Scenario(1, shards, core.TopoGuardPlus(), true)
			defer s.Close()
			check(t, []*controller.Controller{s.Replica(0), s.Replica(1)}, s.Run)
		})
	}
	t.Run("chaos-cluster-testbed", func(t *testing.T) {
		tb := core.NewClusterChaosLine(1, nil)
		defer tb.Close()
		var ctls []*controller.Controller
		for _, r := range tb.Cluster.Replicas() {
			ctls = append(ctls, r.Ctl)
		}
		check(t, ctls, tb.Net.Run)
	})
}
