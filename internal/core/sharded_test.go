package core

import (
	"testing"

	"sdntamper/internal/exp"
)

// TestShardedByteIdentical is the equivalence gate for the sharded
// kernel: the same k=4 fat-tree trial under TOPOGUARD+ must produce
// byte-identical merged metrics snapshots — and identical ping and
// discovery outcomes — at 1 shard (the serial reference), 2 shards, 5
// shards (every pod on its own kernel), and with parallel epoch
// execution at 5 shards.
func TestShardedByteIdentical(t *testing.T) {
	const seed, k, rounds = 424242, 4, 2
	configs := []exp.Config{{Shards: 1}, {Shards: 2}, {Shards: 5}, {Shards: 5, Parallel: true}}

	results, err := exp.Equivalent(configs, func(cfg exp.Config) (*ShardedScaleResult, string, error) {
		res, err := RunShardedScale(seed, k, cfg.Shards, cfg.Parallel, rounds)
		if err != nil {
			return nil, "", err
		}
		if res.PingsAnswered != res.PingsSent {
			t.Fatalf("%v: %d of %d pings answered", cfg, res.PingsAnswered, res.PingsSent)
		}
		if cfg.Shards > 1 {
			// The equivalence must be earned: pod↔core trunks and pod
			// control channels really cross shards, and every shard
			// executes a share of the events.
			if res.CrossTrunks == 0 {
				t.Fatalf("%v: no cross-shard trunks", cfg)
			}
			for i, n := range res.ShardEvents {
				if n == 0 {
					t.Fatalf("%v: shard %d executed no events", cfg, i)
				}
			}
		}
		return res, res.MetricsProm, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].MetricsProm == "" {
		t.Fatal("reference snapshot is empty")
	}
}
