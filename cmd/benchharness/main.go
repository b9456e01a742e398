// Command benchharness regenerates every table and figure of the paper's
// evaluation and prints them in the shape the paper reports. Run with no
// arguments for everything, or select one experiment:
//
//	benchharness -experiment table1 -seed 7
//	benchharness -experiment fig11 -runs 200
//
// Absolute timings for Table II depend on the machine; every other output
// is produced on the deterministic virtual clock and reproduces exactly
// for a fixed seed.
//
// The chaos experiment (fault injection, no attacker) and the fat-tree
// scale experiment are opt-in — they are not part of "all":
//
//	benchharness -experiment chaos -chaostrials 5 -out chaos.json
//	benchharness -experiment scale -seed 7
//	benchharness -experiment scale -shards 4 -scalek 16 -scalerounds 3
//
// So is the distributed-DoS experiment, which runs both flood variants
// at 1 and 2 shards and verifies the deterministic surface matches:
//
//	benchharness -experiment dos -dosk 4 -dosfloor 30000 -out dos.json
//
// And the clustered-controller failover experiment, which crashes a
// replica mid-run, measures the deterministic reconvergence and the
// LLI blind window, and evaluates the attack matrix under partitioned
// controller views at 1, 2 and 5 shards:
//
//	benchharness -experiment failover -seed 21 -out failover.json
//
// And the discovery-protocol experiment, which compares the OFDP sweep
// against event-driven sOFTDP (steady-state load across fat-tree
// arities, link-failure detection latency, shard byte-identity of the
// sOFTDP event schedule, and the attack matrix under both protocols):
//
//	benchharness -experiment discovery -discoveryk 4,8,16,32 -out discovery.json
//
// Those four experiments write one JSON report schema with -out: the
// experiment, the seed, a note, the verified results (shaped by the json
// tags of the core result types) and the host-dependent wall rows.
//
// Profiling: -cpuprofile and -memprofile write pprof files for whatever
// experiment ran. Profiles observe wall-clock behavior only; they do not
// perturb the virtual clock, so profiled runs stay deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdntamper/internal/core"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchharness", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment id: all, table1, table2, table3, fig3, fig4, fig5678, fig10, fig11, fig12, fig13, inband, timeout, scan, alertflood, windows, profiles, ablation, matrix, obs, chaos, scale, dos, failover, discovery")
	seed := fs.Int64("seed", 1, "simulation seed")
	runs := fs.Int("runs", 100, "hijack runs for the Figure 5-8 distributions")
	workers := fs.Int("workers", 0, "worker goroutines for multi-trial experiments (0 = one per CPU, 1 = serial)")
	metricsPath := fs.String("metrics", "", "write the obs experiment's metrics snapshot to this file (.csv for CSV, anything else for JSON Lines)")
	tracePath := fs.String("trace", "", "obs/scale experiments: record causal spans and write them to this file (.jsonl for JSON Lines, anything else for Chrome trace_event JSON)")
	shards := fs.Int("shards", 0, "scale experiment: shard kernels (0 = legacy single-kernel path at k=4,8)")
	scaleK := fs.String("scalek", "4,8,16", "scale experiment: comma-separated fat-tree arities (sharded path only)")
	scaleRounds := fs.Int("scalerounds", 3, "scale experiment: steady-state ping rounds (sharded path only)")
	scaleParallel := fs.Bool("scaleparallel", true, "scale experiment: run shard windows on parallel goroutines")
	dosK := fs.Int("dosk", 4, "dos experiment: fat-tree arity")
	dosFloor := fs.Float64("dosfloor", 0, "dos experiment: fail if any run executes fewer kernel events/s (0 = no floor)")
	discoveryK := fs.String("discoveryk", "4,8,16,32", "discovery experiment: comma-separated fat-tree arities for the load scan")
	chaosTrials := fs.Int("chaostrials", 5, "chaos experiment: seeded trials per fault class")
	chaosClasses := fs.String("chaosclasses", "", "chaos experiment: comma-separated fault classes (default all: flap-storm,loss-episode,latency-spike,disconnect,controller-crash)")
	out := fs.String("out", "", "dos, failover, discovery and chaos experiments: write the JSON report to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile, taken after the run, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out != "" && !reporters[*experiment] {
		return fmt.Errorf("-out: experiment %q writes no report", *experiment)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// The snapshot is taken by the deferred func once every experiment
		// has finished, so profile I/O never runs inside an experiment.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchharness:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchharness:", err)
			}
		}()
	}

	experiments := map[string]func(int64, int) error{
		"table1":     func(s int64, _ int) error { return printTableI(s) },
		"table2":     func(int64, int) error { return printTableII() },
		"table3":     func(int64, int) error { return printTableIII() },
		"fig3":       func(s int64, _ int) error { return printFig3(s) },
		"fig4":       func(s int64, _ int) error { return printFig4(s) },
		"fig5678":    func(s int64, r int) error { return printFig5678(s, r, *workers) },
		"fig10":      func(s int64, _ int) error { return printFig10(s) },
		"fig11":      func(s int64, _ int) error { return printFig11(s) },
		"fig12":      func(s int64, _ int) error { return printFig12(s) },
		"fig13":      func(s int64, _ int) error { return printFig13(s) },
		"inband":     func(s int64, _ int) error { return printInBand(s) },
		"timeout":    func(s int64, _ int) error { return printTimeout(s) },
		"scan":       func(s int64, _ int) error { return printScan(s) },
		"alertflood": func(s int64, _ int) error { return printAlertFlood(s) },
		"matrix":     func(s int64, _ int) error { return printMatrix(s) },
		"windows":    printWindows,
		"induced":    func(s int64, _ int) error { return printInduced(s, *workers) },
		"secbind":    func(s int64, _ int) error { return printSecBind(s) },
		"profiles":   func(s int64, _ int) error { return printProfiles(s) },
		"ablation":   func(s int64, _ int) error { return printAblations(s) },
		"obs":        func(s int64, _ int) error { return printObs(s, *metricsPath, *tracePath) },
		"chaos": func(s int64, _ int) error {
			return printChaos(s, *chaosTrials, *workers, *chaosClasses, *out)
		},
		"scale": func(s int64, _ int) error {
			return printScale(s, *shards, *scaleK, *scaleRounds, *scaleParallel, *tracePath)
		},
		"dos": func(s int64, _ int) error {
			return printDoS(s, *dosK, *dosFloor, *out)
		},
		"failover": func(s int64, _ int) error {
			return printFailover(s, *out)
		},
		"discovery": func(s int64, _ int) error {
			return printDiscovery(s, *discoveryK, *out)
		},
	}

	if *experiment == "all" {
		order := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5678",
			"fig10", "fig11", "fig12", "fig13", "inband", "timeout", "scan", "alertflood",
			"windows", "profiles", "ablation", "induced", "secbind", "matrix", "obs"}
		for _, id := range order {
			if err := experiments[id](*seed, *runs); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	fn, ok := experiments[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return fn(*seed, *runs)
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func printTableI(seed int64) error {
	header("TABLE I: Liveness Probe Options (1000 scans, RTT excluded)")
	fmt.Printf("%-15s %-10s %-16s %s\n", "Type", "Stealth", "Requirements", "Timing (mean ± std)")
	for _, r := range core.RunTableI(seed, 1000) {
		fmt.Printf("%-15s %-10s %-16s %s ± %s\n", r.Probe, r.Stealth, r.Requirements, ms(r.Mean), ms(r.Std))
	}
	return nil
}

func printTableII() error {
	header("TABLE II: TOPOGUARD+ Performance Overhead (measured on this host)")
	rows, err := core.RunTableII(20000)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-12s %-12s %s\n", "Function", "Baseline", "With TG+", "Overhead")
	for _, r := range rows {
		fmt.Printf("%-20s %-12s %-12s %s\n", r.Function, r.Baseline, r.WithTGPlus, r.Overhead)
	}
	fmt.Println("(paper, 2018 Java/Floodlight: construction +0.134ms, processing +0.299ms)")
	return nil
}

func printTableIII() error {
	header("TABLE III: Link timeout and discovery intervals")
	fmt.Printf("%-14s %-26s %-14s %s\n", "Controller", "Link Discovery Interval", "Link Timeout", "Timeout/Interval")
	for _, r := range core.RunTableIII() {
		fmt.Printf("%-14s %-26s %-14s %.1fx\n", r.Controller, r.DiscoveryInterval, r.LinkTimeout, r.TimeoutFactor)
	}
	return nil
}

func printFig3(seed int64) error {
	header("FIGURE 3: Host location hijacking timeline (one run, offsets from victim down)")
	events, err := core.RunFig3Timeline(seed, false)
	if err != nil {
		return err
	}
	for _, e := range events {
		fmt.Printf("%+12s  %s\n", ms(e.Offset), e.Name)
	}
	return nil
}

func printFig4(seed int64) error {
	header("FIGURE 4: Distribution of ifconfig identity-change time (1000 trials)")
	series := core.RunFig4(seed, 1000)
	fmt.Println(series.Summary())
	fmt.Println(series.Histogram(16))
	fmt.Println("(paper: mean 9.94ms, heavy tail to ~160ms)")
	return nil
}

func printFig5678(seed int64, runs, workers int) error {
	header(fmt.Sprintf("FIGURES 5-8: Hijack phase distributions (%d runs, offsets from victim down)", runs))
	for _, mode := range []struct {
		name string
		tool bool
	}{
		{"mechanism only (50ms ARP probes, calibrated timeout)", false},
		{"with nmap tool-cost model (Table I ARP scan 133.5ms)", true},
	} {
		d, err := core.RunHijackDistributions(seed, runs, mode.tool, workers)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s (%d/%d completed) ---\n", mode.name, d.AttackerUp.N(), runs)
		fmt.Printf("Fig 7  victim down -> final ping start : %s\n", d.LastPingStart.Summary())
		fmt.Printf("Fig 8  victim down -> attacker knows   : %s\n", d.KnownOffline.Summary())
		fmt.Printf("Fig 5  victim down -> attacker up      : %s\n", d.AttackerUp.Summary())
		fmt.Printf("Fig 6  victim down -> controller ack   : %s\n", d.ControllerAck.Summary())
		fmt.Printf("calibrated probe timeouts              : %s\n", d.ProbeTimeouts.Summary())
	}
	fmt.Println("\n(paper: attacker up 478ms mean, controller ack 549ms mean; the")
	fmt.Println(" difference vs our mechanism-mode numbers is nmap invocation cost,")
	fmt.Println(" see EXPERIMENTS.md)")
	return nil
}

func printFig10(seed int64) error {
	header("FIGURE 10: Latency of switch internal links (100 LLI samples per link)")
	series, err := core.RunFig10(seed, 100)
	if err != nil {
		return err
	}
	var keys []string
	byKey := map[string]*stats.DurationSeries{}
	for l, s := range series {
		k := l.String()
		keys = append(keys, k)
		byKey[k] = s
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-22s %s\n", k, byKey[k].Summary())
	}
	fmt.Println("(paper: ~5ms average with micro-bursts to ~12ms)")
	return nil
}

func printFig11(seed int64) error {
	header("FIGURE 11: LLI threshold vs measured latencies (attack at t=60s)")
	res, err := core.RunFig11(seed, 5*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-22s %-10s %-10s %s\n", "t", "link", "latency", "threshold", "flagged")
	for _, p := range res.Points {
		flag := ""
		if p.Flagged {
			flag = "ALERT"
		}
		th := "-"
		if p.Threshold > 0 {
			th = ms(p.Threshold)
		}
		fmt.Printf("%-10s %-22s %-10s %-10s %s\n",
			p.At.Truncate(time.Millisecond), p.Link, ms(p.Latency), th, flag)
	}
	fmt.Printf("\nfabricated link blocked: %v; LLI alerts: %d\n", res.FabricatedBlocked, len(res.Alerts))
	return nil
}

func printFig12(seed int64) error {
	header("FIGURE 12: TOPOGUARD+ alerts for anomalous control messages (in-band attack)")
	alerts, err := core.RunFig12(seed, 2*time.Minute)
	if err != nil {
		return err
	}
	for _, a := range alerts {
		fmt.Println(a)
	}
	fmt.Printf("(%d CMM alerts over 2 minutes of in-band port amnesia)\n", len(alerts))
	return nil
}

func printFig13(seed int64) error {
	header("FIGURE 13: TOPOGUARD+ alerts for anomalous link latencies (OOB attack)")
	alerts, err := core.RunFig13(seed, 3*time.Minute)
	if err != nil {
		return err
	}
	for _, a := range alerts {
		fmt.Println(a)
	}
	fmt.Printf("(%d LLI alerts; paper's example: delay 22ms vs threshold 14ms)\n", len(alerts))
	return nil
}

func printInBand(seed int64) error {
	header("SECTION V-A: In-band context switching latency penalty")
	res, err := core.RunInBandLatency(seed, 3*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("real trunks      : %s\n", res.RealTrunk.Summary())
	fmt.Printf("fabricated link  : %s\n", res.Fabricated.Summary())
	fmt.Printf("amnesia cycles   : A=%d B=%d\n", res.CyclesA, res.CyclesB)
	fmt.Printf("penalty (means)  : %s\n", ms(res.Fabricated.Mean()-res.RealTrunk.Mean()))
	fmt.Println("(paper: >=16ms added per context switch from the 802.3 link-pulse interval)")
	return nil
}

func printTimeout(seed int64) error {
	header("SECTION V-B1: Probe timeout derivation")
	d := core.RunProbeTimeoutDerivation(seed)
	fmt.Printf("RTT model            : N(%.0fms, %.0fms)\n", d.RTTMeanMillis, d.RTTStdMillis)
	fmt.Printf("derived p99 timeout  : %s (FPR %.4f)\n", d.DerivedTimeout, d.FPRAtDerived)
	fmt.Printf("paper's choice       : %s (FPR %.4f)\n", d.PaperTimeout, d.FPRAtPaperChoice)
	return nil
}

func printScan(seed int64) error {
	header("SECTION V-B2: Scan detection by the Snort/ET surrogate")
	rows, err := core.RunScanDetection(seed, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %-8s %-10s %s\n", "Probe", "Rate/s", "Scans", "IDS hits", "Detected")
	for _, r := range rows {
		fmt.Printf("%-10s %-10.1f %-8d %-10d %v\n", r.Probe, r.RatePerSec, r.Scans, r.IDSAlerts, r.Detected)
	}
	fmt.Println("(paper: SYN detected above 2/s; ARP undetected even at 20/s)")
	return nil
}

func printAlertFlood(seed int64) error {
	header("SECTION IV-B: Alert flood against the defenses")
	res, err := core.RunAlertFlood(seed, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("spoofed frames   : %d over %.0fs\n", res.SpoofedFrames, res.DurationSecs)
	fmt.Printf("alerts raised    : %d (%.1f/s)\n", res.AlertsRaised, res.AlertsPerSec)
	fmt.Printf("bindings moved   : %d of %d (alerts change no state)\n", res.BindingsMoved, res.VictimBindings)
	return nil
}

func printWindows(seed int64, runs int) error {
	header("SECTION IV-B2: Downtime windows vs attack completion")
	rows, err := core.RunDowntimeWindows(seed, runs, false, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %-12s %s\n", "Window", "Success", "Mean usable", "Usable fraction")
	for _, r := range rows {
		fmt.Printf("%-12s %-10.2f %-12s %.3f\n", r.Window, r.SuccessRate, r.MeanUsable, r.UsableFraction)
	}
	fmt.Println("(paper: live migration windows are seconds; maintenance windows minutes-hours;")
	fmt.Println(" the attack consumes a small constant slice of either)")
	return nil
}

func printProfiles(seed int64) error {
	header("TABLE III (behavioral): fabrication speed and linger per controller profile")
	rows, err := core.RunProfileSweep(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %s\n", "Controller", "Time to fabricate", "Linger after relay stops")
	for _, r := range rows {
		fmt.Printf("%-14s %-20s %s\n", r.Controller, r.TimeToFabricate.Truncate(time.Millisecond), r.LingerAfterStop.Truncate(time.Millisecond))
	}
	return nil
}

func printAblations(seed int64) error {
	header("ABLATION: LLI outlier fence k in Q3 + k*IQR")
	rows, err := core.RunLLIAblation(seed, []float64{1.5, 3, 6}, []int{100}, 4*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-8s %-16s %-12s %-16s %s\n", "k", "window", "false positives", "detected", "detection delay", "benign links intact")
	for _, r := range rows {
		fmt.Printf("%-6.1f %-8d %d/%-14d %-12v %-16s %v\n",
			r.IQRMultiplier, r.WindowSize, r.FalsePositives, r.BenignSamples, r.Detected,
			r.DetectionDelay.Truncate(time.Millisecond), r.BenignLinksIntact)
	}

	header("ABLATION: control-link RTT averaging depth (§VI-D uses 3)")
	avg, err := core.RunControlAveragingAblation(seed, []int{1, 3, 9}, 3*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %s\n", "samples", "latency mean", "latency std")
	for _, r := range avg {
		fmt.Printf("%-8d %-14s %s\n", r.ControlSamples, ms(r.LatencyMean), ms(r.LatencyStd))
	}
	return nil
}

func printInduced(seed int64, workers int) error {
	header("EXTENSION (SECTION IV-B): hypervisor-induced migration hijack")
	res, err := core.RunInducedMigration(seed)
	if err != nil {
		return err
	}
	fmt.Printf("resource DoS -> migration trigger : %s (balancer hysteresis)\n",
		res.MigrationStartedAt.Sub(res.LoadRaisedAt).Truncate(time.Millisecond))
	fmt.Printf("live-migration downtime window    : %s\n", res.Downtime.Truncate(time.Millisecond))
	fmt.Printf("hijack completed inside window    : %v (%s after window opened)\n",
		res.HijackWon, res.HijackCompletedAt.Sub(res.MigrationStartedAt).Truncate(time.Millisecond))
	fmt.Printf("alerts during window / after      : %d / %d\n", res.AlertsDuringWindow, res.AlertsAfterReturn)

	const trials = 20
	sum, err := core.RunInducedMigrationSeries(seed, trials, workers)
	if err != nil {
		return err
	}
	fmt.Printf("\nacross %d seeded trials:\n", sum.Runs)
	fmt.Printf("hijack win rate                   : %d/%d (%.0f%%)\n", sum.Wins, sum.Runs, 100*sum.WinRate)
	fmt.Printf("DoS -> migration trigger          : %s\n", sum.TriggerDelay.Summary())
	fmt.Printf("downtime window                   : %s\n", sum.Downtime.Summary())
	fmt.Printf("alerts during windows / after     : %d / %d\n", sum.AlertsDuring, sum.AlertsAfter)
	return nil
}

func printSecBind(seed int64) error {
	header("EXTENSION (SECTION VI-A): identifier binding vs port probing")
	v, err := core.RunPortProbingWithIdentifierBinding(seed)
	if err != nil {
		return err
	}
	fmt.Printf("port probing + hijack vs TopoGuard+SPHINX+SecBind: %s\n", v)
	fmt.Println("(the legitimate victim still migrates after re-authenticating;")
	fmt.Println(" the attacker, lacking the credential, cannot complete the move)")
	return nil
}

// printObs runs the Figure 9 testbed under TOPOGUARD+ for two virtual
// minutes with the full observability stack on: the deterministic metric
// registry, the span recorder when tracePath is set, and the
// (wall-clock, hence non-deterministic) kernel profile.
func printObs(seed int64, metricsPath, tracePath string) error {
	header("OBSERVABILITY: metrics and kernel profile (Fig 9 testbed, TOPOGUARD+)")
	s := core.NewFig9Testbed(seed, core.TopoGuardPlus())
	defer s.Close()
	var recorder *trace.Recorder
	if tracePath != "" {
		recorder = s.Net.EnableTrace(0)
	}
	profile := obs.NewKernelProfile(s.Net.Kernel, 30*time.Second)
	if err := s.Run(2 * time.Minute); err != nil {
		return err
	}
	profile.Stop()

	reg := s.Net.Metrics()
	snap := reg.Snapshot()
	fmt.Println("deterministic registry snapshot (selected series):")
	selected := []string{"sim_", "controller_", "defense_", "lli_"}
	for _, c := range snap.Counters {
		for _, p := range selected {
			if strings.HasPrefix(c.Name, p) {
				fmt.Printf("  %-70s %d\n", c.Name, c.Value)
				break
			}
		}
	}
	for _, h := range snap.Histograms {
		fmt.Printf("  %-70s n=%d p50=%s p99=%s\n", h.Name, h.Count, ms(h.P50), ms(h.P99))
	}

	fmt.Println("\nkernel wall-time profile (non-deterministic, excluded from snapshots):")
	for _, ws := range profile.Samples() {
		fmt.Printf("  virtual %-8s wall %-12s events %d\n",
			ws.VirtualEnd, ws.Wall.Truncate(time.Microsecond), ws.Events)
	}

	if metricsPath != "" {
		if err := snap.WriteFile(metricsPath); err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", metricsPath)
	}
	if recorder != nil {
		if err := trace.WriteFileReport(os.Stdout, tracePath, trace.Merge(recorder), recorder.Dropped()); err != nil {
			return err
		}
	}
	return nil
}

// checkScale fails a scale run in which any cross-pod ping went
// unanswered.
func checkScale(k, answered, sent int) error {
	if answered != sent {
		return fmt.Errorf("scale k=%d: %d of %d pings unanswered", k, sent-answered, sent)
	}
	return nil
}

// printScale runs the fat-tree scale benchmark: full discovery plus
// reactive cross-pod forwarding under TOPOGUARD+. With shards == 0 it
// keeps the legacy single-kernel path at k=4 and k=8; with shards >= 1
// it runs the sharded kernel over the -scalek arities (k=16 builds
// 320 switches, k=32 builds 1280 — only reachable on the sharded path).
// It fails at the first arity whose pings are not all answered.
func printScale(seed int64, shards int, scaleK string, rounds int, parallel bool, tracePath string) error {
	if shards <= 0 {
		if tracePath != "" {
			return fmt.Errorf("-trace requires the sharded scale path (-shards >= 1)")
		}
		header("SCALE: k-ary fat-tree under TOPOGUARD+ (discovery + cross-pod traffic)")
		fmt.Printf("%-4s %-10s %-7s %-8s %-8s %-8s %-10s %s\n",
			"k", "switches", "hosts", "trunks", "links", "pings", "events", "wall")
		for _, k := range []int{4, 8} {
			r, err := core.RunScale(seed, k)
			if err != nil {
				return err
			}
			fmt.Printf("%-4d %-10d %-7d %-8d %-8d %d/%-6d %-10d %s\n",
				r.K, r.Switches, r.Hosts, r.Trunks, r.DirectedLinks,
				r.PingsAnswered, r.PingsSent, r.Events, r.Wall.Truncate(time.Millisecond))
			if err := checkScale(r.K, r.PingsAnswered, r.PingsSent); err != nil {
				return err
			}
		}
		fmt.Println("(all trunks discovered in both directions; wall time is host-dependent)")
		return nil
	}

	ks, err := parseInts(scaleK)
	if err != nil {
		return fmt.Errorf("-scalek: %w", err)
	}
	header(fmt.Sprintf("SCALE (sharded): fat-tree under TOPOGUARD+, %d shard(s), parallel=%v, %d rounds",
		shards, parallel, rounds))
	fmt.Printf("%-4s %-10s %-7s %-8s %-8s %-8s %-8s %-10s %-10s %s\n",
		"k", "switches", "hosts", "trunks", "xshard", "links", "pings", "events", "lookahead", "wall")
	var lastTraced *core.ShardedScaleResult
	for _, k := range ks {
		var r *core.ShardedScaleResult
		var err error
		if tracePath != "" {
			r, err = core.RunShardedScaleTraced(seed, k, shards, parallel, rounds)
		} else {
			r, err = core.RunShardedScale(seed, k, shards, parallel, rounds)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%-4d %-10d %-7d %-8d %-8d %-8d %d/%-6d %-10d %-10s %s\n",
			r.K, r.Switches, r.Hosts, r.Trunks, r.CrossTrunks, r.DirectedLinks,
			r.PingsAnswered, r.PingsSent, r.Events, r.Lookahead, r.Wall.Truncate(time.Millisecond))
		fmt.Printf("     per-shard events: %v  LLI false positives: %d\n", r.ShardEvents, r.LLIAlerts)
		if err := checkScale(r.K, r.PingsAnswered, r.PingsSent); err != nil {
			return err
		}
		if tracePath != "" {
			lastTraced = r
		}
	}
	if lastTraced != nil {
		if err := trace.WriteFileReport(os.Stdout, tracePath, lastTraced.Spans, lastTraced.SpansDropped); err != nil {
			return err
		}
		fmt.Println("shard health gauges (execution geometry, last arity):")
		for _, line := range strings.Split(strings.TrimSpace(lastTraced.HealthProm), "\n") {
			if !strings.HasPrefix(line, "#") {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	fmt.Println("(event totals, link and ping outcomes are identical across shard counts;")
	fmt.Println(" wall time is host-dependent)")
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", csv)
	}
	return out, nil
}

func printMatrix(seed int64) error {
	header("ATTACK-SUCCESS MATRIX (the headline result)")
	rows, err := core.RunAttackMatrix(seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-48s %-12s %-12s %-12s %s\n", "Attack", "TopoGuard", "SPHINX", "TOPOGUARD+", "FULLSTACK")
	for _, r := range rows {
		fmt.Printf("%-48s %-12s %-12s %-12s %s\n", r.Attack, r.VsTopoGuard, r.VsSphinx, r.VsTGPlus, r.VsFullStack)
	}
	return nil
}
