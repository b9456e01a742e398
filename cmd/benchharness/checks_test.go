package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// shifting its events at the 2-shard run by drift. The configuration
	// and the wall clock differ on every run; the result's tags keep
	// them out of the fingerprint.
	dosSweep := func(drift uint64) error {
		_, err := exp.Equivalent(dosConfigs, func(cfg exp.Config) (*core.DoSResult, string, error) {
			res := &core.DoSResult{Variant: "udp", Events: 1000, MetricsProm: "x 1\n",
				Shards: cfg.Shards, Parallel: cfg.Parallel, Wall: time.Duration(cfg.Shards) * time.Second}
			if cfg.Shards == 2 {
				res.Events += drift
			}
			return res, res.MetricsProm, nil
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
		{"dos clean", checkDoS(&core.DoSResult{Variant: "syn", Blocks: 3, AttackerBlocks: 3}), false},
		{"dos false block", checkDoS(&core.DoSResult{Variant: "syn", Blocks: 3, FalseBlocks: 1}), true},
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

// TestOutRejectedWithoutReport: -out on an experiment that writes no
// report fails before anything runs, and creates no file.
func TestOutRejectedWithoutReport(t *testing.T) {
	for _, experiment := range []string{"all", "table1", "scale"} {
		path := filepath.Join(t.TempDir(), "report.json")
		err := run([]string{"-experiment", experiment, "-out", path})
		if err == nil || !strings.Contains(err.Error(), "writes no report") {
			t.Errorf("%s: err = %v, want a writes-no-report rejection", experiment, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: report file exists after the rejection (stat err %v)", experiment, err)
		}
	}
}

// TestReportSchema writes a report for a synthetic result and decodes
// exactly the five top-level keys, with the result's untagged fields
// left out.
func TestReportSchema(t *testing.T) {
	rep := report{Experiment: "dos", Seed: 7, Note: "synthetic"}
	results, err := sweep(&rep, "synflood", dosConfigs, func(cfg exp.Config) (*core.DoSResult, string, error) {
		return &core.DoSResult{Variant: "synflood", K: 4, Shards: cfg.Shards, Wall: time.Second, MetricsProm: "x 1\n"}, "x 1\n", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Results = results[:1]
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"experiment", "note", "results", "seed", "wall_nondeterministic"}; !slices.Equal(keys, want) {
		t.Fatalf("top-level keys = %v, want %v", keys, want)
	}
	var got struct {
		Results []map[string]any `json:"results"`
		Wall    []wallRow        `json:"wall_nondeterministic"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0]["variant"] != "synflood" || got.Results[0]["k"] != 4.0 {
		t.Fatalf("results = %v, want the one synflood result", got.Results)
	}
	for _, untagged := range []string{"Shards", "shards", "Wall", "MetricsProm"} {
		if _, ok := got.Results[0][untagged]; ok {
			t.Errorf("result carries untagged field %q", untagged)
		}
	}
	if len(got.Wall) != len(dosConfigs) || got.Wall[1].Shards != 2 || !got.Wall[1].Parallel || got.Wall[0].Stage != "synflood" {
		t.Fatalf("wall rows = %+v, want one per config", got.Wall)
	}
}
