package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the daemon goroutine write output while the test
// goroutine polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunRejectsUnknownProfile(t *testing.T) {
	err := run([]string{"-profile", "beacon"}, nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown profile "beacon"`) {
		t.Fatalf("err = %v, want unknown profile", err)
	}
}

func TestRunRejectsUnknownDefense(t *testing.T) {
	err := run([]string{"-defense", "topoguard++"}, nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown defense "topoguard++"`) {
		t.Fatalf("err = %v, want unknown defense", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	fs := run([]string{"-no-such-flag"}, nil, io.Discard)
	if fs == nil {
		t.Fatal("expected flag-parse error, got nil")
	}
}

// TestRunServesAndShutsDown boots the full daemon on ephemeral ports,
// scrapes the observability endpoint, and shuts it down via the signal
// channel, covering the -seed, -http, -defense and clean-exit paths.
// The full stack adds the rate monitor, whose port-statistics poll
// ticks on the daemon's real-time kernel.
func TestRunServesAndShutsDown(t *testing.T) {
	for _, tc := range []struct {
		defense string
		metric  string // a series the stack's last module registers
	}{
		{"topoguard+", "# TYPE lli_link_latency_seconds histogram"},
		{"full", "ratemon_blocks_total 0"},
	} {
		t.Run(tc.defense, func(t *testing.T) {
			sig := make(chan os.Signal, 1)
			out := &syncBuffer{}
			done := make(chan error, 1)
			go func() {
				done <- run([]string{
					"-addr", "127.0.0.1:0",
					"-http", "127.0.0.1:0",
					"-seed", "42",
					"-status", "0",
					"-defense", tc.defense,
				}, sig, out)
			}()

			httpRe := regexp.MustCompile(`observability endpoint on (http://[^/\s]+)/metrics`)
			var base string
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if m := httpRe.FindStringSubmatch(out.String()); m != nil {
					base = m[1]
					break
				}
				select {
				case err := <-done:
					t.Fatalf("daemon exited early: %v\noutput:\n%s", err, out.String())
				case <-time.After(10 * time.Millisecond):
				}
			}
			if base == "" {
				t.Fatalf("HTTP endpoint never announced; output:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "seed 42\n") {
				t.Errorf("chosen seed not logged; output:\n%s", out.String())
			}

			metrics := httpGet(t, base+"/metrics")
			for _, want := range []string{
				"# TYPE controller_packetin_total counter",
				"controller_packetin_total 0",
				"# TYPE sim_events_executed_total counter",
				`defense_verdicts_total{module="TopoGuard",verdict="pass"} 0`,
				tc.metric,
			} {
				if !strings.Contains(metrics, want) {
					t.Errorf("/metrics missing %q; got:\n%s", want, metrics)
				}
			}
			topo := httpGet(t, base+"/topology")
			if !strings.Contains(topo, "digraph topology") {
				t.Errorf("/topology is not DOT; got:\n%s", topo)
			}

			sig <- os.Interrupt
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("daemon did not shut down after signal")
			}
			if !strings.Contains(out.String(), "shutting down") {
				t.Errorf("missing shutdown message; output:\n%s", out.String())
			}
		})
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return string(body)
}
