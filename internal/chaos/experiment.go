package chaos

import (
	"fmt"
	"slices"
	"time"

	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/obs"
)

// Config parameterizes a chaos experiment run.
type Config struct {
	// Classes selects the fault classes to exercise (default: all).
	Classes []Class
	// Trials is the number of seeded trials per class (default 5).
	Trials int
	// Workers shards trials across goroutines (<=0: one per CPU).
	Workers int
	// Seed is the base seed; per-trial seeds derive from it.
	Seed int64
	// Warmup runs before injection so discovery verifies every trunk and
	// the LLI builds its control estimates (default 40s — one Floodlight
	// link timeout plus slack).
	Warmup time.Duration
	// Horizon caps how long after the fault clears a trial waits for the
	// topology to recover (default 120s).
	Horizon time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Classes) == 0 {
		c.Classes = Classes()
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Warmup <= 0 {
		c.Warmup = 40 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	return c
}

// recoveryPollInterval is the watcher cadence comparing the live link set
// against the pre-fault baseline.
const recoveryPollInterval = 250 * time.Millisecond

// TrialResult is one trial's outcome. Every field is on the virtual
// clock, so it reproduces exactly for a fixed seed.
type TrialResult struct {
	Class Class `json:"class"`
	Seed  int64 `json:"seed"`
	// FaultSpan is how long the injected scenario stayed active.
	FaultSpan time.Duration `json:"fault_span_ns"`
	// Recovered reports whether the pre-fault link set was fully
	// re-verified within the horizon after the fault cleared.
	Recovered bool `json:"recovered"`
	// RecoveryTime is the time from fault clearing to full recovery.
	RecoveryTime time.Duration `json:"recovery_ns"`
	// FalseAlerts counts defense alerts raised from injection to the end
	// of the watch window. With no attacker present, all are spurious.
	FalseAlerts int `json:"false_alerts"`
	// PendingLeaked counts probe waiters still outstanding after the
	// trial drained — nonzero means a lifecycle leak.
	PendingLeaked int `json:"pending_leaked"`
}

// ClassResult aggregates one fault class.
type ClassResult struct {
	Class        Class         `json:"class"`
	Trials       int           `json:"trials"`
	Recovered    int           `json:"recovered"`
	MeanRecovery time.Duration `json:"mean_recovery_ns"`
	MaxRecovery  time.Duration `json:"max_recovery_ns"`
	FalseAlerts  int           `json:"false_alerts"`
}

// Result is a full chaos experiment outcome.
type Result struct {
	Trials  []TrialResult `json:"trials"`
	Classes []ClassResult `json:"classes"`
}

// trialSpec is one work item of the class x seed grid.
type trialSpec struct {
	class Class
	seed  int64
}

// Run executes the chaos experiment: per fault class, Trials seeded
// trials, each on a private kernel/registry, merged in item order so the
// combined snapshot is byte-identical for any worker count.
func Run(cfg Config) (*Result, *obs.Registry, error) {
	cfg = cfg.withDefaults()
	specs := make([]trialSpec, 0, len(cfg.Classes)*cfg.Trials)
	for ci, class := range cfg.Classes {
		for t := 0; t < cfg.Trials; t++ {
			specs = append(specs, trialSpec{
				class: class,
				seed:  cfg.Seed + int64(ci)*1_000_003 + int64(t)*7919,
			})
		}
	}
	trials, merged, err := exp.GridInstrumented(specs, cfg.Workers,
		func(s trialSpec) (TrialResult, *obs.Registry, error) {
			return runTrial(s, cfg)
		})
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Trials: trials}
	for _, class := range cfg.Classes {
		cr := ClassResult{Class: class}
		var sum time.Duration
		for _, t := range trials {
			if t.Class != class {
				continue
			}
			cr.Trials++
			cr.FalseAlerts += t.FalseAlerts
			if t.Recovered {
				cr.Recovered++
				sum += t.RecoveryTime
				if t.RecoveryTime > cr.MaxRecovery {
					cr.MaxRecovery = t.RecoveryTime
				}
			}
		}
		if cr.Recovered > 0 {
			cr.MeanRecovery = sum / time.Duration(cr.Recovered)
		}
		res.Classes = append(res.Classes, cr)
	}
	return res, merged, nil
}

// runTrial warms one chaos line, injects a randomized plan of the
// given class, then watches for the pre-fault topology to re-verify.
// The controller-crash class runs on the clustered line: its baseline
// is the replicated store's link set, the injector draws against the
// cluster, and recovery needs the whole control plane healed.
func runTrial(s trialSpec, cfg Config) (TrialResult, *obs.Registry, error) {
	var tb *core.Scenario
	var cl *cluster.Cluster
	if s.class == ClassControllerCrash {
		ctb := core.NewClusterChaosLine(s.seed, nil)
		tb, cl = &ctb.Scenario, ctb.Cluster
	} else {
		tb = core.NewChaosLine(s.seed, nil)
	}
	defer tb.Close()
	net, ctl := tb.Net, tb.Controller()

	// A trial baselines its controller's link view and recovers when
	// that view is back; a clustered trial baselines the replicated
	// store and recovers when the whole control plane healed.
	liveLinks := ctl.Links
	recovered := func(baseline []controller.Link) bool { return slices.Equal(ctl.Links(), baseline) }
	pending := func() int { return ctl.PendingProbes().Total() }
	if cl != nil {
		liveLinks = cl.LiveLinks
		recovered = func(baseline []controller.Link) bool { return clusterRecovered(cl, baseline) }
		pending = cl.PendingProbeTotal
	}

	// Warm: discovery verifies the trunks, the LLI builds control
	// estimates, and one ping populates the host tracking service.
	if err := net.Run(2 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	net.Host("h1").Ping(net.Host("h2").MAC(), net.Host("h2").IP(),
		2*time.Second, func(dataplane.ProbeResult) {})
	if err := net.Run(cfg.Warmup - 2*time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	baseline := liveLinks()
	if len(baseline) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: warmup discovered no links (seed %d)", s.seed)
	}
	alertsBefore := tb.AlertTotal()

	inj := NewInjector(net, s.seed)
	if cl != nil {
		inj.BindCluster(cl)
	}
	plan := inj.PlanFor(s.class)
	if len(plan) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: no plan for class %s", s.class)
	}
	inj.Apply(plan)
	res := TrialResult{Class: s.class, Seed: s.seed, FaultSpan: plan.End()}
	if err := net.Run(plan.End()); err != nil {
		return TrialResult{}, nil, err
	}

	// Watch: poll until the baseline is back, or give up at the horizon.
	// Recovery time runs from the instant the fault cleared.
	for waited := time.Duration(0); waited < cfg.Horizon; waited += recoveryPollInterval {
		if recovered(baseline) {
			res.Recovered = true
			res.RecoveryTime = waited
			break
		}
		if err := net.Run(recoveryPollInterval); err != nil {
			return TrialResult{}, nil, err
		}
	}
	res.FalseAlerts = tb.AlertTotal() - alertsBefore

	// Drain: stop every controller's periodic probing, let in-flight
	// probes resolve or time out, then check the pending tables for
	// leaks.
	for _, m := range tb.Deployed() {
		m.LLI.Stop()
	}
	if err := net.Run(10 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	res.PendingLeaked = pending()
	return res, net.Metrics(), nil
}

// clusterRecovered reports whether the whole control plane healed:
// every replica is alive, at least one failover completed, and every
// replica's link view matches the baseline.
func clusterRecovered(cl *cluster.Cluster, baseline []controller.Link) bool {
	if len(cl.Timelines()) == 0 {
		return false
	}
	want := make(map[controller.Link]bool, len(baseline))
	for _, l := range baseline {
		want[l] = true
	}
	for _, rep := range cl.Replicas() {
		if !rep.Alive() {
			return false
		}
		links := rep.Ctl.Links()
		if len(links) != len(want) {
			return false
		}
		for _, l := range links {
			if !want[l] {
				return false
			}
		}
	}
	return true
}
