package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdntamper/internal/exp"
	"sdntamper/internal/obs"
	"sdntamper/internal/stats"
)

// TestRunsAreReproducible guards the repository's core promise: identical
// seeds produce identical runs. (Map-ordered iteration in the controller
// once broke this by reordering RNG draws.)
func TestRunsAreReproducible(t *testing.T) {
	run := func() []Fig11Point {
		res, err := RunFig11(99, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at sample %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHijackRunsReproducible(t *testing.T) {
	run := func() []TimelineEvent {
		events, err := RunFig3Timeline(77, false)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Offset != b[i].Offset {
			t.Fatalf("timelines diverged at %d: %v vs %v", i, a[i].Offset, b[i].Offset)
		}
	}
}

// TestParallelExecutorByteIdentical pins the parallel executor's core
// contract: for a fixed seed set, the merged distributions are
// byte-for-byte identical to the serial path across every series,
// regardless of worker count.
func TestParallelExecutorByteIdentical(t *testing.T) {
	render := func(d *HijackDistributions) string {
		out := fmt.Sprintf("failed=%d\n", d.Failed)
		for _, s := range []struct {
			name   string
			series *stats.DurationSeries
		}{
			{"lastPingStart", &d.LastPingStart},
			{"knownOffline", &d.KnownOffline},
			{"attackerUp", &d.AttackerUp},
			{"controllerAck", &d.ControllerAck},
			{"identityChange", &d.IdentityChange},
			{"probeTimeouts", &d.ProbeTimeouts},
		} {
			// Samples() is insertion order: merge order itself is pinned,
			// not just the distribution.
			out += fmt.Sprintf("%s %v %s\n", s.name, s.series.Samples(), s.series.Summary())
		}
		return out
	}
	serial, err := RunHijackDistributions(4242, 10, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := render(serial)
	for _, workers := range []int{0, 2, 4, 5} {
		par, err := RunHijackDistributions(4242, 10, false, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(par); got != want {
			t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", workers, want, got)
		}
	}
}

// TestParallelMatchesSequential checks that a serial run and a four-worker
// run of the same seeds give the same merged series, sample for sample.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := RunHijackDistributions(81, 12, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHijackDistributions(81, 12, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Failed != par.Failed {
		t.Fatalf("failed counts differ: %d vs %d", seq.Failed, par.Failed)
	}
	if seq.AttackerUp.N() != par.AttackerUp.N() {
		t.Fatalf("sample counts differ: %d vs %d", seq.AttackerUp.N(), par.AttackerUp.N())
	}
	// Per-run kernels are private and seeded identically, so the merged
	// series must be identical sample for sample.
	a, b := seq.AttackerUp.Samples(), par.AttackerUp.Samples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if seq.ControllerAck.Mean() != par.ControllerAck.Mean() {
		t.Fatal("aggregate means differ")
	}
}

func TestParallelWorkerClamping(t *testing.T) {
	d, err := RunHijackDistributions(82, 3, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.AttackerUp.N()+d.Failed != 3 {
		t.Fatalf("runs accounted = %d", d.AttackerUp.N()+d.Failed)
	}
	if _, err := RunHijackDistributions(83, 4, false, 0); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotByteIdentical extends the determinism contract to
// the observability layer: a fleet's merged metrics snapshot (Prometheus
// text) must be byte-for-byte identical regardless of the worker count.
func TestMetricsSnapshotByteIdentical(t *testing.T) {
	seeds := []int64{11, 12, 13, 14, 15, 16}
	trial := func(seed int64) (struct{}, *obs.Registry, error) {
		s := NewFig2Scenario(seed, TopoGuardPlus())
		defer s.Close()
		if err := s.Run(30 * time.Second); err != nil {
			return struct{}{}, nil, err
		}
		return struct{}{}, s.Net.Metrics(), nil
	}
	render := func(workers int) string {
		_, merged, err := exp.GridInstrumented(seeds, workers, trial)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := merged.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render(1)
	for _, series := range []string{
		"controller_packetin_total", "sim_events_executed_total",
		`defense_verdicts_total{module="TopoGuard",verdict="pass"}`,
	} {
		if !strings.Contains(want, series) {
			t.Fatalf("merged snapshot missing %s:\n%s", series, want)
		}
	}
	if got := render(8); got != want {
		t.Fatalf("workers=8 snapshot diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}
