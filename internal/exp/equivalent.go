package exp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Config is one shard/parallel execution of a sharded scenario.
type Config struct {
	Shards   int
	Parallel bool
}

func (c Config) String() string { return fmt.Sprintf("shards=%d parallel=%v", c.Shards, c.Parallel) }

// Fingerprint is the deterministic surface of one run: everything that
// must come out the same whatever the shard count or parallel mode.
type Fingerprint struct {
	// Invariants holds the result fields that must not depend on the
	// configuration. It is compared as indented JSON, so a divergence
	// points at one field.
	Invariants any
	// Metrics is the merged Prometheus snapshot, or another line-oriented
	// rendering of the run such as its span stream.
	Metrics string
}

// Equivalent runs run once per config, in order, on the calling
// goroutine, and checks every fingerprint against the first config's:
// the first config is the reference. It returns the results in config
// order. An error from run comes back wrapped with its config; a
// divergence names the config and the first line that differs.
func Equivalent[R any](configs []Config, run func(Config) (R, Fingerprint, error)) ([]R, error) {
	results := make([]R, 0, len(configs))
	var ref []string
	for _, cfg := range configs {
		r, fp, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg, err)
		}
		inv, err := json.MarshalIndent(fp.Invariants, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg, err)
		}
		lines := strings.Split(string(inv)+"\n"+fp.Metrics, "\n")
		if ref == nil {
			ref = lines
		}
		for i := 0; i < len(ref) || i < len(lines); i++ {
			if i >= len(ref) || i >= len(lines) || ref[i] != lines[i] {
				return nil, fmt.Errorf("%v diverges from the %v reference at line %d:\n  ref: %s\n  got: %s",
					cfg, configs[0], i+1, lineAt(ref, i), lineAt(lines, i))
			}
		}
		results = append(results, r)
	}
	return results, nil
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
