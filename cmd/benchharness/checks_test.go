package main

import (
	"testing"
	"time"

	"sdntamper/internal/chaos"
	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// TestChecks pins the typed gates the experiments enforce before they
// write a report: every violation must fail, every clean result must
// pass.
func TestChecks(t *testing.T) {
	detection := func(proto string, detect time.Duration, falseEvictions int) *core.DiscoveryDetectionResult {
		return &core.DiscoveryDetectionResult{Protocol: proto, Detection: detect, FalseEvictions: falseEvictions, Recovered: true}
	}
	// dosSweep fingerprints a clean DoS result at every configuration,
	// shifting one invariant at the 2-shard run by drift.
	dosSweep := func(drift uint64) error {
		_, err := exp.Equivalent(dosConfigs, func(cfg exp.Config) (*core.DoSResult, exp.Fingerprint, error) {
			res := &core.DoSResult{Variant: "udp", Events: 1000, MetricsProm: "x 1\n"}
			if cfg.Shards == 2 {
				res.Events += drift
			}
			return res, exp.Fingerprint{Invariants: dosRow(res), Metrics: res.MetricsProm}, nil
		})
		return err
	}
	cases := []struct {
		name    string
		err     error
		wantErr bool
	}{
		{"chaos clean", second(chaosLeaks([]chaos.TrialResult{{}, {}})), false},
		{"chaos leak", second(chaosLeaks([]chaos.TrialResult{{}, {PendingLeaked: 1}})), true},
		{"failover clean", checkFailover(&core.FailoverResult{}), false},
		{"failover leak", checkFailover(&core.FailoverResult{PendingLeaked: 2}), true},
		{"failover false alert", checkFailover(&core.FailoverResult{FalseAlerts: 1}), true},
		{"scale clean", checkScale(16, 1024, 1024), false},
		{"scale unanswered ping", checkScale(4, 7, 8), true},
		{"dos clean", checkDoS(dosVariantRow{Variant: "syn", Blocks: 3, AttackerBlocks: 3}), false},
		{"dos false block", checkDoS(dosVariantRow{Variant: "syn", Blocks: 3, FalseBlocks: 1}), true},
		{"detection clean", checkDetection(detection("ofdp", 30*time.Second, 0), detection("softdp", time.Second, 0)), false},
		{"ofdp false eviction", checkDetection(detection("ofdp", 30*time.Second, 1), detection("softdp", time.Second, 0)), true},
		{"softdp false eviction", checkDetection(detection("ofdp", 30*time.Second, 0), detection("softdp", time.Second, 1)), true},
		{"fingerprints match", dosSweep(0), false},
		{"fingerprint mismatch", dosSweep(1), true},
	}
	for _, c := range cases {
		if (c.err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, c.err, c.wantErr)
		}
	}
}

func second[T any](_ T, err error) error { return err }
