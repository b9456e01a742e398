// Command topotamper runs the paper's attack scenarios interactively:
// pick a scenario, a defense stack, and an attack, and watch the
// controller's log (including any defense alerts) as the virtual network
// runs.
//
//	topotamper -scenario fig9 -defense topoguard+ -attack oob-amnesia -duration 2m
//	topotamper -scenario fig2 -defense both -attack port-probing
//	topotamper -scenario fig1 -defense topoguard -attack naive-fabrication
//
// With -chaos a randomized fault plan of the named class (flap-storm,
// loss-episode, latency-spike, disconnect) is injected after warmup, with
// or without an attack running:
//
//	topotamper -scenario fig9 -attack none -chaos disconnect -duration 3m
//
// With -trials N (N > 1) the same configuration runs headlessly across N
// consecutive seeds on the parallel executor and prints one summary row
// per trial, merged in seed order:
//
//	topotamper -scenario fig2 -defense both -attack port-probing -trials 20 -parallel 0
//
// With -failover the clustered control plane replaces the single
// controller: two replicas split mastership of the Figure 9 switches,
// replica 1 is crashed mid-run, and the deterministic failover timeline
// (election, role handover, state replay, rediscovery, LLI re-learn) is
// printed:
//
//	topotamper -failover -seed 21
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/chaos"
	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/obs"
	spantrace "sdntamper/internal/obs/trace"
	"sdntamper/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topotamper:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topotamper", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "fig9", "topology: fig1, fig2, fig9")
	defenseName := fs.String("defense", "topoguard+", "defense stack: "+core.DefenseNames())
	attackName := fs.String("attack", "oob-amnesia", "attack: none, naive-fabrication, amnesia (alias oob-amnesia), inband-amnesia, naive-hijack, port-probing, alert-flood, synflood, saturation")
	duration := fs.Duration("duration", 2*time.Minute, "virtual time to run")
	seed := fs.Int64("seed", 1, "simulation seed")
	quiet := fs.Bool("quiet", false, "suppress the controller log, print only the summary")
	tracePath := fs.String("trace", "", "record causal spans and write them to this file (.jsonl for JSON Lines, anything else for Chrome trace_event JSON)")
	traceFrames := fs.Int("tapframes", 0, "tap the attacker/victim NICs and print the last N captured frames")
	pcapPath := fs.String("pcap", "", "also write tapped frames to this file in libpcap format")
	dotPath := fs.String("dot", "", "write the final topology view as Graphviz dot to this file")
	chaosClass := fs.String("chaos", "", "inject a randomized fault plan of this class after warmup: flap-storm, loss-episode, latency-spike, disconnect")
	failover := fs.Bool("failover", false, "run the clustered-controller failover demo (crash the master of switches 3-4 under TOPOGUARD+) and exit")
	trials := fs.Int("trials", 1, "seeded trials (seed, seed+1, ...); >1 runs a headless fleet, one summary row per trial")
	parallel := fs.Int("parallel", 0, "worker goroutines for the trial fleet (0 = one per CPU, 1 = serial)")
	metricsPath := fs.String("metrics", "", "write the final metrics snapshot to this file (.csv for CSV, anything else for JSON Lines); fleets merge per-trial registries in seed order")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *failover {
		return runFailoverDemo(*seed)
	}
	if *trials > 1 {
		if *chaosClass != "" {
			return fmt.Errorf("-chaos is a single-run option; for multi-trial fault injection use benchharness -experiment chaos")
		}
		for _, opt := range []struct {
			name string
			set  bool
		}{
			{"trace", *tracePath != ""},
			{"tapframes", *traceFrames > 0},
			{"pcap", *pcapPath != ""},
			{"dot", *dotPath != ""},
		} {
			if opt.set {
				return fmt.Errorf("-%s is a single-run option; a fleet (-trials > 1) does not record it", opt.name)
			}
		}
		return runFleet(*scenarioName, *defenseName, *attackName, *duration, *seed, *trials, *parallel, *metricsPath)
	}

	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Printf("[ctl] "+format+"\n", a...)
		}
	}
	s, err := buildScenario(*scenarioName, *defenseName, *seed, logf)
	if err != nil {
		return err
	}
	defer s.Close()

	fmt.Printf("scenario=%s defense=%s attack=%s seed=%d duration=%s\n",
		*scenarioName, *defenseName, *attackName, *seed, *duration)

	var recorder *spantrace.Recorder
	if *tracePath != "" {
		recorder = s.Net.EnableTrace(0)
	}

	var capture *trace.Log
	var pcap *trace.Pcap
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pcap, err = trace.NewPcap(s.Net.Kernel, f)
		if err != nil {
			return err
		}
	}
	if *traceFrames > 0 {
		capture = trace.NewLog(s.Net.Kernel, *traceFrames)
	}
	if capture != nil || pcap != nil {
		for _, name := range []string{core.HostAttackerA, core.HostAttackerB, core.HostVictim} {
			h := s.Net.Host(name)
			if h == nil {
				continue
			}
			if capture != nil {
				capture.TapHost(h, name)
			}
			if pcap != nil {
				pcap.TapHost(h)
			}
		}
	}

	// Boot and warm host bindings.
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}
	warm(s)
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}

	attackLogf := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	if err := launchAttack(s, *scenarioName, *attackName, attackLogf, nil); err != nil {
		return err
	}
	if *chaosClass != "" {
		if err := injectChaos(s, *chaosClass, *seed); err != nil {
			return err
		}
	}
	if err := s.Run(*duration); err != nil {
		return err
	}

	fmt.Println("\n--- final state ---")
	fmt.Println("links:")
	for _, l := range s.Controller().Links() {
		fmt.Printf("  %s\n", l)
	}
	fmt.Println("hosts:")
	fmt.Print(indent(s.Controller().HostTableString()))
	alerts := s.Controller().Alerts()
	fmt.Printf("alerts: %d\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("  %s\n", a)
	}
	if capture != nil {
		fmt.Printf("\n--- last %d of %d captured frames ---\n", len(capture.Events()), capture.Total())
		fmt.Print(capture.String())
	}
	if pcap != nil {
		if err := pcap.Err(); err != nil {
			return err
		}
		fmt.Printf("pcap: %d frames written to %s\n", pcap.Frames(), *pcapPath)
	}
	if *dotPath != "" {
		dot := s.Controller().TopologyDot(nil)
		if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("topology view written to %s\n", *dotPath)
	}
	if recorder != nil {
		if err := exportSpans(recorder, *tracePath); err != nil {
			return err
		}
	}
	return writeMetrics(s.Net.Metrics(), *metricsPath)
}

// exportSpans writes the flight recorder's span stream to path (.jsonl
// for JSON Lines, anything else for Chrome trace_event JSON, viewable
// in chrome://tracing or Perfetto) and prints the causal chain of the
// first blocked or flagged verdict — the forensic record of how a
// defense reached its decision.
func exportSpans(rec *spantrace.Recorder, path string) error {
	spans := spantrace.Merge(rec)
	if err := spantrace.WriteFileReport(os.Stdout, path, spans, rec.Dropped()); err != nil {
		return err
	}
	verdicts := spantrace.FindByName(spans, "verdict.block")
	if len(verdicts) == 0 {
		verdicts = spantrace.FindByName(spans, "verdict.flag")
	}
	if len(verdicts) > 0 {
		chain := spantrace.Chain(spans, verdicts[0].ID)
		names := make([]string, len(chain))
		for i, sp := range chain {
			names[i] = sp.Name
		}
		fmt.Printf("first adverse verdict (%s) causal chain: %s\n", verdicts[0].Detail, strings.Join(names, " -> "))
		fmt.Printf("its timeline holds %d spans\n", len(spantrace.Timeline(spans, verdicts[0].ID)))
	}
	return nil
}

// writeMetrics writes a registry's snapshot to path (.csv for CSV,
// anything else for JSON Lines); an empty path writes nothing.
func writeMetrics(reg *obs.Registry, path string) error {
	if path == "" {
		return nil
	}
	if err := reg.Snapshot().WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("metrics snapshot written to %s\n", path)
	return nil
}

// runFailoverDemo runs the clustered failover experiment once and
// prints the deterministic timeline: the Figure 9 testbed mastered by
// two replicas (switches 1-2 on replica 0, 3-4 on replica 1), replica 1
// crashed after warmup, the survivor elected, replayed, and verified.
func runFailoverDemo(seed int64) error {
	fmt.Printf("failover demo: 2 replicas over fig9, full TOPOGUARD+, seed=%d\n", seed)
	res, err := core.RunFailover(seed, 2, true)
	if err != nil {
		return err
	}
	fmt.Println("replica 1 (master of switches 3-4) crashed; failover timeline:")
	for _, line := range res.Timeline {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("reconvergence        : %s\n", time.Duration(res.ReconvergenceNs).Truncate(time.Microsecond))
	fmt.Printf("LLI blind window     : %s\n", time.Duration(res.BlindWindowNs).Truncate(time.Microsecond))
	fmt.Printf("surviving view       : %d directed links\n", res.Links)
	fmt.Printf("pending probes leaked: %d\n", res.PendingLeaked)
	fmt.Printf("spurious alerts      : %d\n", res.FalseAlerts)
	return nil
}

// injectChaos arms a randomized fault plan of the named class on the
// scenario's network, seeded so the same invocation replays the same
// fault timeline. The plan starts immediately; the scenario keeps running
// for the full -duration, so pick a duration longer than the printed span
// to watch the topology recover.
func injectChaos(s *core.Scenario, className string, seed int64) error {
	classes, err := chaos.ParseClasses([]string{className})
	if err != nil {
		return err
	}
	inj := chaos.NewInjector(s.Net, seed)
	plan := inj.PlanFor(classes[0])
	if len(plan) == 0 {
		return fmt.Errorf("no %s fault plan for this scenario", className)
	}
	inj.Apply(plan)
	fmt.Printf("[chaos] injected %d %s fault(s), active span %s\n",
		len(plan), className, plan.End().Truncate(time.Millisecond))
	return nil
}

func withLog(logf func(string, ...any)) []controller.Option {
	return []controller.Option{controller.WithLogf(logf)}
}

// buildScenario constructs the named topology with the named defense stack.
func buildScenario(scenarioName, defenseName string, seed int64, logf func(string, ...any)) (*core.Scenario, error) {
	defenses, err := core.ParseDefenses(defenseName)
	if err != nil {
		return nil, err
	}
	switch scenarioName {
	case "fig1":
		return core.NewFig1Scenario(seed, defenses, withLog(logf)...), nil
	case "fig2":
		return core.NewFig2Scenario(seed, defenses, withLog(logf)...), nil
	case "fig9":
		return core.NewFig9Testbed(seed, defenses, withLog(logf)...), nil
	default:
		return nil, fmt.Errorf("unknown scenario %q", scenarioName)
	}
}

// trialOutcome is the per-seed summary a fleet trial reports.
type trialOutcome struct {
	seed   int64
	links  int
	hosts  int
	alerts int
	ackAt  time.Time // controller ack of a completed hijack; zero if none
}

// runTrial executes one headless trial: build, warm, attack, run,
// summarize. The returned registry is the trial's private metrics store,
// merged in seed order by the fleet path.
func runTrial(scenarioName, defenseName, attackName string, duration time.Duration, seed int64) (trialOutcome, *obs.Registry, error) {
	out := trialOutcome{seed: seed}
	discard := func(string, ...any) {}
	s, err := buildScenario(scenarioName, defenseName, seed, discard)
	if err != nil {
		return out, nil, err
	}
	defer s.Close()
	if err := s.Run(3 * time.Second); err != nil {
		return out, nil, err
	}
	warm(s)
	if err := s.Run(3 * time.Second); err != nil {
		return out, nil, err
	}
	if err := launchAttack(s, scenarioName, attackName, discard, &out.ackAt); err != nil {
		return out, nil, err
	}
	if err := s.Run(duration); err != nil {
		return out, nil, err
	}
	out.links = len(s.Controller().Links())
	out.hosts = len(s.Controller().Hosts())
	out.alerts = len(s.Controller().Alerts())
	return out, s.Net.Metrics(), nil
}

// runFleet runs the same configuration across consecutive seeds on the
// parallel executor and prints one row per trial, merged in seed order.
func runFleet(scenarioName, defenseName, attackName string, duration time.Duration, seed int64, trials, workers int, metricsPath string) error {
	fmt.Printf("fleet: %d trials, scenario=%s defense=%s attack=%s duration=%s seeds=%d..%d\n",
		trials, scenarioName, defenseName, attackName, duration, seed, seed+int64(trials)-1)
	results, merged, err := exp.GridInstrumented(exp.Seeds(seed, trials, 1), workers, func(s int64) (trialOutcome, *obs.Registry, error) {
		return runTrial(scenarioName, defenseName, attackName, duration, s)
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-7s %-7s %-8s %s\n", "seed", "links", "hosts", "alerts", "hijack ack")
	hijacks := 0
	for _, r := range results {
		ack := "-"
		if !r.ackAt.IsZero() {
			hijacks++
			ack = r.ackAt.Format("15:04:05.000")
		}
		fmt.Printf("%-8d %-7d %-7d %-8d %s\n", r.seed, r.links, r.hosts, r.alerts, ack)
	}
	if attackName == "port-probing" {
		fmt.Printf("hijacks completed: %d/%d\n", hijacks, trials)
	}
	return writeMetrics(merged, metricsPath)
}

func warm(s *core.Scenario) {
	pairs := [][2]string{
		{core.HostClient, core.HostServer},
		{core.HostAttackerA, core.HostClient},
		{core.HostAttackerB, core.HostServer},
		{core.HostClient, core.HostVictim},
		{core.HostAttackerA, core.HostVictim},
	}
	for _, p := range pairs {
		from, to := s.Net.Host(p[0]), s.Net.Host(p[1])
		if from == nil || to == nil {
			continue
		}
		from.ARPPing(to.IP(), time.Second, func(dataplane.ProbeResult) {})
	}
}

// launchAttack arms the named attack. Progress goes through logf so fleet
// trials stay silent; ackAt (optional) receives the controller-ack time of
// a completed port-probing hijack.
func launchAttack(s *core.Scenario, scenarioName, attackName string, logf func(string, ...any), ackAt *time.Time) error {
	a := s.Net.Host(core.HostAttackerA)
	b := s.Net.Host(core.HostAttackerB)
	switch attackName {
	case "none":
		return nil
	case "naive-fabrication", "oob-amnesia", "amnesia":
		if s.OOB == nil || a == nil || b == nil {
			return fmt.Errorf("%s needs a scenario with colluding hosts and an OOB channel (fig1, fig9)", attackName)
		}
		attack.NewOOBFabrication(s.Net.Kernel, a, b, s.OOB, attack.FabricationConfig{
			UseAmnesia:      attackName != "naive-fabrication",
			BridgeDataplane: true,
		}).Start()
	case "inband-amnesia":
		if a == nil || b == nil {
			return fmt.Errorf("inband-amnesia needs colluding hosts (fig9)")
		}
		attack.NewInBandFabrication(s.Net.Kernel, a, b, 0).Start()
	case "naive-hijack":
		victim := s.Net.Host(core.HostVictim)
		if victim == nil || a == nil {
			return fmt.Errorf("naive-hijack needs the fig2 scenario")
		}
		attack.NaiveHijack(s.Net.Kernel, a, victim.MAC(), victim.IP())
	case "port-probing":
		victim := s.Net.Host(core.HostVictim)
		if victim == nil || a == nil || scenarioName != "fig2" {
			return fmt.Errorf("port-probing needs the fig2 scenario")
		}
		hj := attack.NewHijack(s.Net.Kernel, a, victim.IP(), attack.DefaultHijackConfig(core.AttackerLocFig2()))
		s.Controller().Register(hj)
		hj.Start(func(tl attack.Timeline) {
			if ackAt != nil {
				*ackAt = tl.ControllerAck
			}
			logf("[attack] hijack complete: controller ack at %s", tl.ControllerAck.Format("15:04:05.000"))
		})
		// The victim migrates 10 virtual seconds in.
		s.Net.Kernel.Schedule(10*time.Second, func() {
			logf("[victim] beginning migration (interface down)")
			victim.InterfaceDown()
		})
	case "synflood", "saturation":
		server := s.Net.Host(core.HostServer)
		if server == nil || a == nil || b == nil {
			return fmt.Errorf("%s needs the fig9 scenario (attackers flood the server)", attackName)
		}
		// Rates sized to exceed the default monitor threshold (80% of a
		// 10 Mbps access link = 1 MB/s): 25k SYN/s × 54 B ≈ 1.35 MB/s,
		// 1k datagrams/s × 1442 B ≈ 1.4 MB/s.
		variant := attack.SYNFlood
		pps := 25000.0
		if attackName == "saturation" {
			variant = attack.LinkSaturation
			pps = 1000
		}
		flood := attack.NewDoS([]*dataplane.Host{a, b}, server.MAC(), server.IP(),
			attack.DoSConfig{Variant: variant, PacketsPerSec: pps, Seed: 0})
		flood.Announce()
		flood.Start()
		logf("[attack] distributed %s from %s and %s against %s", attackName,
			core.HostAttackerA, core.HostAttackerB, core.HostServer)
	case "alert-flood":
		victim := s.Net.Host(core.HostVictim)
		client := s.Net.Host(core.HostClient)
		if victim == nil || client == nil || a == nil {
			return fmt.Errorf("alert-flood needs the fig2 scenario")
		}
		attack.NewAlertFlood(s.Net.Kernel, []*dataplane.Host{a}, []attack.SpoofTarget{
			{MAC: victim.MAC(), IP: victim.IP()},
			{MAC: client.MAC(), IP: client.IP()},
		}, 10*time.Millisecond).Start()
	default:
		return fmt.Errorf("unknown attack %q", attackName)
	}
	return nil
}

// indent prefixes every line of s with two spaces. A final newline ends
// the last line rather than opening an empty one, and "" stays "".
func indent(s string) string {
	if s == "" {
		return ""
	}
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}
