package main

import (
	"fmt"
	"strings"
	"time"

	"sdntamper/internal/chaos"
)

// printChaos runs the fault-injection experiment: per fault class, seeded
// trials on the Figure 9 chaos testbed under the full TopoGuard+ stack,
// measuring discovery recovery time, defense false positives, and
// pending-probe leaks. A leak is an error. With outPath set it also
// writes the report.
func printChaos(seed int64, trials, workers int, classesCSV, outPath string) error {
	classes, err := parseChaosClasses(classesCSV)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("CHAOS: discovery recovery and defense FPs under injected faults (%d trials/class)", trials))
	res, reg, err := chaos.Run(chaos.Config{
		Classes: classes,
		Trials:  trials,
		Workers: workers,
		Seed:    seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-15s %-10s %-16s %-16s %s\n", "Fault class", "Recovered", "Mean recovery", "Max recovery", "False alerts")
	for _, c := range res.Classes {
		fmt.Printf("%-15s %d/%-8d %-16s %-16s %d\n",
			c.Class, c.Recovered, c.Trials,
			c.MeanRecovery.Truncate(time.Millisecond),
			c.MaxRecovery.Truncate(time.Millisecond),
			c.FalseAlerts)
	}
	leaked, leakErr := chaosLeaks(res.Trials)
	fmt.Printf("pending probes leaked across all trials: %d (must be 0)\n", leaked)
	fmt.Println("(no attacker is present: every alert during a fault episode is a false positive;")
	fmt.Println(" latency spikes legitimately trip the LLI — that is the paper's Fig 10/11 FP source)")
	if leakErr != nil {
		return leakErr
	}

	metrics := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "chaos_") || strings.HasPrefix(c.Name, "controller_switch_") ||
			c.Name == "controller_probe_failed_total" || c.Name == "controller_host_aged_out_total" {
			metrics[c.Name] = c.Value
		}
	}
	rep := report{
		Experiment: "chaos",
		Seed:       seed,
		Note: "Every trial runs on the virtual clock, so the results are byte-identical " +
			"for a fixed seed, class list and trial count whatever the worker count. " +
			"Trials are not timed, so there are no wall rows.",
		Results: map[string]any{"trials_per_class": trials, "classes": res.Classes, "trials": res.Trials, "metrics": metrics},
	}
	return rep.write(outPath)
}

// chaosLeaks totals the pending probes the trials leaked; any leak is an
// error.
func chaosLeaks(trials []chaos.TrialResult) (int, error) {
	leaked := 0
	for _, t := range trials {
		leaked += t.PendingLeaked
	}
	if leaked != 0 {
		return leaked, fmt.Errorf("chaos trials leaked %d pending probes", leaked)
	}
	return 0, nil
}

// parseChaosClasses resolves a comma-separated class list; empty selects
// every built-in class.
func parseChaosClasses(csv string) ([]chaos.Class, error) {
	if csv == "" {
		return chaos.Classes(), nil
	}
	var names []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return chaos.ParseClasses(names)
}
