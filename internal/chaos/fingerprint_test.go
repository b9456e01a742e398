package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/netsim"
)

// testbedDigest warms a testbed for 40 s, applies the injector's seeded
// plan for class, runs 20 s past its end, and hashes the merged
// Prometheus snapshot, the executed-event count, and every controller's
// links and alerts in order.
func testbedDigest(net *netsim.Network, seed int64, class Class, rs ReplicaSet, ctls ...*controller.Controller) (string, error) {
	if err := net.Run(40 * time.Second); err != nil {
		return "", err
	}
	inj := NewInjector(net, seed)
	if rs != nil {
		inj.BindCluster(rs)
	}
	plan := inj.PlanFor(class)
	inj.Apply(plan)
	if err := net.Run(plan.End() + 20*time.Second); err != nil {
		return "", err
	}
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

// TestTestbedFingerprints pins the bytes of both chaos lines, and of
// Run's trial rows and merged snapshot over every class, across
// commits, as core's TestUniverseFingerprints does for the scenarios:
// the chaos determinism gates compare worker counts within one build and
// would not notice the testbeds or the trial runner drifting. The
// testbed constants were computed before the two lines shared one
// builder, the Run constant before the lines became core scenarios and
// the two trial runners one; they change only in a change that
// re-baselines the universe deliberately (ROADMAP item 6).
func TestTestbedFingerprints(t *testing.T) {
	const seed = 5
	cases := []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"testbed/loss-episode", func() (string, error) {
			tb := core.NewChaosLine(seed, nil)
			defer tb.Close()
			return testbedDigest(tb.Net, seed, ClassLossEpisode, nil, tb.Net.Controller)
		}, "9c70e42661452055b9b58867ac3d6b237174c1360f9bb4bd719a2bc3bfd07316"},
		{"cluster-testbed/controller-crash", func() (string, error) {
			tb := core.NewClusterChaosLine(seed, nil)
			defer tb.Close()
			var ctls []*controller.Controller
			for _, r := range tb.Cluster.Replicas() {
				ctls = append(ctls, r.Ctl)
			}
			return testbedDigest(tb.Net, seed, ClassControllerCrash, tb.Cluster, ctls...)
		}, "c4d7acb403181f225445d6050f1d0f8407b6364a714d70e6fd2e12a7f05ac09b"},
		{"run/all-classes", func() (string, error) {
			res, reg, err := Run(Config{Seed: seed, Trials: 2, Workers: 1})
			if err != nil {
				return "", err
			}
			h := sha256.New()
			for _, tr := range res.Trials {
				fmt.Fprintf(h, "%+v\n", tr)
			}
			if err := reg.Snapshot().WritePrometheus(h); err != nil {
				return "", err
			}
			return hex.EncodeToString(h.Sum(nil)), nil
		}, "4ffb6b661275407454363778279f5c9c7d809b3cc95bd4c912212dde6bab6482"},
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
