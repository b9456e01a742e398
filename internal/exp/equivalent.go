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

// Equivalent runs run once per config, in order, on the calling
// goroutine, and checks every run's fingerprint against the first
// config's: the first config is the reference. A fingerprint is the
// result itself, marshalled as indented JSON so a divergence points at
// one field, followed by the line-oriented rendering run returns with
// it, such as the merged Prometheus snapshot or the span stream. The
// result type's json tags therefore define the compared surface: a
// field that legitimately differs by configuration (the shard count,
// the execution geometry, the wall clock) is tagged `json:"-"`.
//
// Equivalent returns the results in config order. An error from run
// comes back wrapped with its config; a divergence names the config and
// the first line that differs.
func Equivalent[R any](configs []Config, run func(Config) (R, string, error)) ([]R, error) {
	results := make([]R, 0, len(configs))
	var ref []string
	for _, cfg := range configs {
		r, rendering, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg, err)
		}
		surface, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg, err)
		}
		lines := strings.Split(string(surface)+"\n"+rendering, "\n")
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
