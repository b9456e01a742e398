package core_test

import (
	"sync"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/exp"
)

// synfloodRef memoizes the serial-reference SYN-flood run: it is the
// most expensive DoS configuration (backscatter triples the event
// count), and both the smoke test and the shard-invariance gate need
// the same result.
var synfloodRef = sync.OnceValues(func() (*core.DoSResult, error) {
	return core.RunDoS(7, 4, 1, false, attack.SYNFlood)
})

// checkDoS asserts the invariants every DoS run must satisfy: detection
// fired within a few poll intervals, no port outside the attack was ever
// blocked, and the 5 s quarantine produced at least one full
// unblock-then-reoffend cycle during the 15 s attack.
func checkDoS(t *testing.T, r *core.DoSResult) {
	t.Helper()
	if r.Blocks == 0 {
		t.Fatal("flood ran 15 s without a single auto-block")
	}
	if r.AttackerBlocks == 0 {
		t.Fatal("no attacker port was blocked")
	}
	if r.FalseBlocks != 0 {
		t.Fatalf("false blocks = %d, want 0 (legit burst or background load blocked)", r.FalseBlocks)
	}
	if r.DetectionLatency <= 0 || r.DetectionLatency > 5*time.Second {
		t.Fatalf("detection latency = %v, want (0, 5s]", r.DetectionLatency)
	}
	if r.Unblocks == 0 {
		t.Fatal("quarantine never expired during the run")
	}
	if r.Reblocked == 0 {
		t.Fatal("no port re-offended after release — quarantine cycle not exercised")
	}
	if r.LegitFlows == 0 || r.AttackPackets == 0 {
		t.Fatalf("load missing: legit flows = %d, attack packets = %d", r.LegitFlows, r.AttackPackets)
	}
}

func logDoS(t *testing.T, r *core.DoSResult) {
	t.Helper()
	t.Logf("%s: blocks=%d (attacker=%d victim=%d false=%d) latency=%v unblocks=%d reblocked=%d legit=%d flows attack=%d pkts events=%d",
		r.Variant, r.Blocks, r.AttackerBlocks, r.VictimBlocks, r.FalseBlocks,
		r.DetectionLatency, r.Unblocks, r.Reblocked, r.LegitFlows, r.AttackPackets, r.Events)
}

func TestDoSSYNFloodDetected(t *testing.T) {
	r, err := synfloodRef()
	if err != nil {
		t.Fatal(err)
	}
	logDoS(t, r)
	checkDoS(t, r)
	// Backscatter: the victim answers every spoofed SYN with a RST, so
	// its own access port trips the monitor too — a real (and reported)
	// casualty of state-exhaustion floods, distinct from a false block.
	if r.VictimBlocks == 0 {
		t.Fatal("SYN backscatter never tripped the victim's port")
	}
}

func TestDoSSaturationDetected(t *testing.T) {
	r, err := core.RunDoS(7, 4, 1, false, attack.LinkSaturation)
	if err != nil {
		t.Fatal(err)
	}
	logDoS(t, r)
	checkDoS(t, r)
	// Saturation datagrams draw no reply, so the victim's own port stays
	// under threshold — backscatter blocks are a SYN-flood phenomenon.
	if r.VictimBlocks != 0 {
		t.Fatalf("victim blocks = %d, want 0 for saturation", r.VictimBlocks)
	}
}

// TestDoSShardInvariant pins the deterministic surface: the same seed
// must produce byte-identical results across shard counts and
// serial/parallel execution — detection timeline, block classification,
// merged metrics. The cheap saturation variant covers the full
// {2 serial, 2 parallel} matrix; the backscatter-heavy SYN flood is
// checked once at the most adversarial point (2 shards, parallel).
func TestDoSShardInvariant(t *testing.T) {
	sweep := func(variant attack.DoSVariant, seed int64, configs []exp.Config) {
		t.Helper()
		_, err := exp.Equivalent(configs, func(cfg exp.Config) (*core.DoSResult, string, error) {
			run := func() (*core.DoSResult, error) { return core.RunDoS(seed, 4, cfg.Shards, cfg.Parallel, variant) }
			if variant == attack.SYNFlood && cfg.Shards == 1 {
				run = synfloodRef
			}
			res, err := run()
			if err != nil {
				return nil, "", err
			}
			if cfg.Shards == 1 {
				checkDoS(t, res)
			}
			return res, res.MetricsProm, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	}
	sweep(attack.LinkSaturation, 11, []exp.Config{{Shards: 1}, {Shards: 2}, {Shards: 2, Parallel: true}})
	sweep(attack.SYNFlood, 7, []exp.Config{{Shards: 1}, {Shards: 2, Parallel: true}})
}
