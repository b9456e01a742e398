package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sdntamper/internal/exp"
)

// reporters are the experiments that write a report with -out.
var reporters = map[string]bool{"dos": true, "failover": true, "discovery": true, "chaos": true}

// report is the JSON artifact an experiment writes with -out. Results is
// the reference result the experiment verified (for a shard/parallel
// sweep, the very value exp.Equivalent compared), so the json tags on
// the core result types are its schema. The wall rows are the only
// host-dependent content.
type report struct {
	Experiment string    `json:"experiment"`
	Seed       int64     `json:"seed"`
	Note       string    `json:"note"`
	Results    any       `json:"results"`
	Wall       []wallRow `json:"wall_nondeterministic"`
}

// wallRow is the host wall-clock cost of one run at one shard
// configuration. EventsPerSec is set where the experiment gates on
// kernel throughput.
type wallRow struct {
	Stage        string  `json:"stage"`
	Shards       int     `json:"shards"`
	Parallel     bool    `json:"parallel"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// wall is the row's wall time at the 10 ms resolution the text tables
// print.
func (w wallRow) wall() time.Duration {
	return time.Duration(w.WallSeconds * float64(time.Second)).Truncate(10 * time.Millisecond)
}

func (r *report) addWall(stage string, cfg exp.Config, wall time.Duration) {
	r.Wall = append(r.Wall, wallRow{Stage: stage, Shards: cfg.Shards, Parallel: cfg.Parallel, WallSeconds: wall.Seconds()})
}

// write writes the report as indented JSON to path; an empty path
// writes nothing.
func (r *report) write(path string) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("report written to", path)
	return nil
}

// sweep runs one stage at every configuration through exp.Equivalent
// and records each run's wall time in rep.
func sweep[R any](rep *report, stage string, configs []exp.Config, run func(exp.Config) (R, string, error)) ([]R, error) {
	results, err := exp.Equivalent(configs, func(cfg exp.Config) (R, string, error) {
		start := time.Now()
		r, rendering, err := run(cfg)
		rep.addWall(stage, cfg, time.Since(start))
		return r, rendering, err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", stage, err)
	}
	return results, nil
}
