package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/netsim"
)

// universeDigest hashes the observable outcome of a run: the merged
// Prometheus snapshot, the executed-event count, and every controller's
// discovered links and alerts in order.
func universeDigest(net *netsim.Network, ctls ...*controller.Controller) (string, error) {
	h := sha256.New()
	if err := net.MergedMetrics().Snapshot().WritePrometheus(h); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "events %d\n", net.Group.Executed())
	for i, ctl := range ctls {
		for _, l := range ctl.Links() {
			fmt.Fprintf(h, "ctl%d link %v\n", i, l)
		}
		for _, a := range ctl.Alerts() {
			fmt.Fprintf(h, "ctl%d alert %v\n", i, a)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// scenarioDigest runs a built scenario for d, after start (if any)
// launched its attack at the 2 s mark, and digests it.
func scenarioDigest(s *Scenario, start func(*Scenario), d time.Duration) (string, error) {
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return "", err
	}
	if start != nil {
		start(s)
	}
	if err := s.Run(d); err != nil {
		return "", err
	}
	return universeDigest(s.Net, s.Controller())
}

// crossPodPing resolves a k=4 fat-tree host across pods.
func crossPodPing(s *Scenario) {
	s.Host("p0-e0-h0").ARPPing(s.Host("p3-e1-h1").IP(), time.Second, func(dataplane.ProbeResult) {})
}

// TestUniverseFingerprints pins the bytes of both RNG stream models
// across commits. The determinism gates compare runs within one build
// (shard counts, workers, repeats), so none of them notices when the
// whole universe drifts; these constants do. They were computed before
// the serial and sharded networks merged into one type and change only
// in a change that re-baselines the universe deliberately (ROADMAP item
// 6). Anywhere else a mismatch is a regression.
func TestUniverseFingerprints(t *testing.T) {
	const seed = 3
	fatTree := func(shards int) func() (string, error) {
		return func() (string, error) {
			if shards == 0 {
				s, _ := NewFatTreeScenario(seed, 4, FullStack())
				return scenarioDigest(s, crossPodPing, 18*time.Second)
			}
			s, _ := NewShardedFatTreeScenario(seed, 4, shards, FullStack())
			return scenarioDigest(s, crossPodPing, 18*time.Second)
		}
	}
	const shardedFatTree = "1c32dbe20c161bfcd11f9e7b54676bc7bb80d68401f944308bcf6d42d9e51c27"
	cases := []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"fig1/oob-amnesia", func() (string, error) {
			return scenarioDigest(NewFig1Scenario(seed, FullStack()), func(s *Scenario) {
				attack.NewOOBFabrication(s.Net.Kernel, s.Host(HostAttackerA), s.Host(HostAttackerB), s.OOB,
					attack.FabricationConfig{UseAmnesia: true}).Start()
			}, time.Minute)
		}, "f6dc8e2ee8a969c8eb159f0f1d019ad2c3e148efe31bbc8f70a5ce0d4a84f68d"},
		{"fig2/ping", func() (string, error) {
			return scenarioDigest(NewFig2Scenario(seed, FullStack()), func(s *Scenario) {
				s.Host(HostClient).ARPPing(s.Host(HostVictim).IP(), time.Second, func(dataplane.ProbeResult) {})
			}, 30*time.Second)
		}, "bdbd03de0cfa450c40bc6e060c754e1f26f5627816d82670072030b83865ffe2"},
		{"fig9/inband-amnesia", func() (string, error) {
			return scenarioDigest(NewFig9Testbed(seed, FullStack()), func(s *Scenario) {
				attack.NewInBandFabrication(s.Net.Kernel, s.Host(HostAttackerA), s.Host(HostAttackerB), 0).Start()
			}, time.Minute)
		}, "bf76312f32d15e72dcfaacb01fcd5b59b4e41a6638c42b8edccbed9d0be919e8"},
		{"fattree-k4/serial", fatTree(0), "e805e5192730ccd4e4a7ae9593713e0a296ed391c96969b41e0075568abf69e1"},
		{"fattree-k4/sharded-1", fatTree(1), shardedFatTree},
		{"fattree-k4/sharded-2", fatTree(2), shardedFatTree},
		{"cluster-fig9/2-shards", func() (string, error) {
			s := NewClusterFig9Scenario(seed, 2, FullStack(), true)
			defer s.Close()
			if err := s.Run(20 * time.Second); err != nil {
				return "", err
			}
			s.Cluster.Crash(1)
			if err := s.Run(20 * time.Second); err != nil {
				return "", err
			}
			return universeDigest(s.Net, s.Replica(0), s.Replica(1))
		}, "8415f3ab2ee75a3a3048612290f339d101d43c94c722d3595d758a50b601b74a"},
	}
	for _, tc := range cases {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
