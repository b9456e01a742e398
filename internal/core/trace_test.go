package core

import (
	"strings"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
)

// TestTraceByteIdentical is the determinism gate for the span flight
// recorder: the same k=4 fat-tree trial under TOPOGUARD+ must produce a
// byte-identical canonical span stream (JSONL rendering of the merged
// per-shard recorders) at 1 shard, 2 shards, 5 shards, and with
// parallel epoch execution — the trace counterpart of
// TestShardedByteIdentical's metrics discipline.
func TestTraceByteIdentical(t *testing.T) {
	const seed, k, rounds = 424242, 4, 2

	configs := []exp.Config{{Shards: 1}, {Shards: 2}, {Shards: 5}, {Shards: 5, Parallel: true}}
	results, err := exp.Equivalent(configs, func(cfg exp.Config) (*ShardedScaleResult, string, error) {
		res, err := RunShardedScaleTraced(seed, k, cfg.Shards, cfg.Parallel, rounds)
		if err != nil {
			return nil, "", err
		}
		if res.SpansDropped != 0 {
			t.Fatalf("%v: %d spans dropped from the ring — stream is no longer shard-count invariant", cfg, res.SpansDropped)
		}
		if len(res.Spans) == 0 {
			t.Fatalf("%v: traced run recorded no spans", cfg)
		}
		if cfg.Shards > 1 {
			// The invariance must be earned: every shard's own recorder
			// captured part of the causal stream, so chains really cross
			// the mailbox boundary before merging back byte-identical.
			for i, n := range res.ShardSpans {
				if n == 0 {
					t.Fatalf("%v: shard %d recorded no spans", cfg, i)
				}
			}
		}
		var sb strings.Builder
		if err := trace.WriteJSONL(&sb, res.Spans); err != nil {
			return nil, "", err
		}
		return res, sb.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refSpans := results[0].Spans

	// The reference stream must contain reconstructable probe flights:
	// root emission, control hop, wire hop, dataplane hop, packet-in,
	// flight — in causal order.
	flights := trace.FindByName(refSpans, "lldp.flight")
	if len(flights) == 0 {
		t.Fatal("reference stream has no lldp.flight spans")
	}
	chain := trace.Chain(refSpans, flights[0].ID)
	names := make([]string, len(chain))
	for i, s := range chain {
		names[i] = s.Name
	}
	want := []string{"lldp.emit", "chan.msg", "port.tx", "link.frame", "port.rx", "chan.msg", "packet-in", "lldp.flight"}
	if len(names) != len(want) {
		t.Fatalf("flight chain = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("flight chain = %v, want %v", names, want)
		}
	}
	if n := len(trace.FindByName(refSpans, "lli.score")); n == 0 {
		t.Error("reference stream has no lli.score spans")
	}
	if n := len(trace.FindByName(refSpans, "verdict.pass")); n == 0 {
		t.Error("reference stream has no verdict.pass spans")
	}
}

// TestCMMForensicTimeline drives the in-band port-amnesia attack of
// Figure 12 with the flight recorder on and reconstructs the forensic
// timeline of the first CMM detection: the exact causal chain from the
// controller's probe emission, across the control channel and the wire,
// back through the packet-in to the propagation-window annotation and
// the blocking verdict.
func TestCMMForensicTimeline(t *testing.T) {
	s := NewFig9Testbed(1, TopoGuardPlus())
	defer s.Close()
	rec := s.Net.EnableTrace(1 << 18)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab := attack.NewInBandFabrication(s.Net.Kernel,
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(tgplus.ReasonControlMessage)) == 0 {
		t.Fatal("attack raised no CMM alerts")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d spans dropped; raise the ring capacity", rec.Dropped())
	}

	spans := trace.Merge(rec)
	var verdict trace.Span
	for _, v := range trace.FindByName(spans, "verdict.block") {
		if strings.HasPrefix(v.Detail, "TopoGuard+/CMM") {
			verdict = v
			break
		}
	}
	if verdict.ID == 0 {
		t.Fatal("no CMM verdict.block span recorded")
	}

	chain := trace.Chain(spans, verdict.ID)
	names := make([]string, len(chain))
	for i, sp := range chain {
		names[i] = sp.Name
	}
	if names[0] != "lldp.emit" {
		t.Fatalf("chain does not start at the probe emission: %v", names)
	}
	wantTail := []string{"chan.msg", "packet-in", "lldp.flight", "verdict.block"}
	if len(names) < len(wantTail)+4 {
		t.Fatalf("chain too short to cross the dataplane: %v", names)
	}
	tail := names[len(names)-len(wantTail):]
	for i := range wantTail {
		if tail[i] != wantTail[i] {
			t.Fatalf("chain tail = %v, want %v (full chain %v)", tail, wantTail, names)
		}
	}
	for _, hop := range []string{"port.tx", "link.frame", "port.rx"} {
		found := false
		for _, n := range names {
			if n == hop {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("chain has no %s hop: %v", hop, names)
		}
	}
	// Virtual-time monotonicity along the chain: every hop starts no
	// earlier than its parent — except the flight span, which stretches
	// back to the emission instant to cover the probe's whole lifetime.
	for i := 1; i < len(chain); i++ {
		if chain[i].Name == "lldp.flight" {
			if chain[i].Start != chain[0].Start {
				t.Fatalf("lldp.flight starts at %d, want the emission instant %d", chain[i].Start, chain[0].Start)
			}
			continue
		}
		if chain[i].Start < chain[i-1].Start {
			t.Fatalf("chain hop %d (%s) starts before its parent", i, chain[i].Name)
		}
	}

	// The propagation-window annotation is a sibling of the verdict
	// under the same flight, and its interval covers probe send to the
	// interfering port event.
	flight := chain[len(chain)-2]
	var window trace.Span
	for _, w := range trace.FindByName(trace.Timeline(spans, verdict.ID), "cmm.window") {
		if w.Parent == flight.ID {
			window = w
			break
		}
	}
	if window.ID == 0 {
		t.Fatal("no cmm.window annotation under the detection's flight span")
	}
	if window.Start < chain[0].Start || window.End > flight.End {
		t.Fatalf("cmm.window [%d,%d] outside probe lifetime [%d,%d]",
			window.Start, window.End, chain[0].Start, flight.End)
	}
	if !strings.Contains(window.Detail, "propagation window") {
		t.Fatalf("cmm.window detail = %q", window.Detail)
	}
}

// TestTopologySpans pins the controller's record spans: topology changes
// and alerts land in the span stream as leaf instants at the controller
// state they describe, and recording them leaves the metrics untouched.
func TestTopologySpans(t *testing.T) {
	t.Run("fig2-host-moved", func(t *testing.T) {
		s := NewFig2Scenario(3, BothBaselines())
		defer s.Close()
		rec := s.Net.EnableTrace(0)
		if err := s.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		victim := s.Host(HostVictim)
		s.Host(HostClient).ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
		if err := s.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		cfg := attack.DefaultHijackConfig(AttackerLocFig2())
		cfg.ToolOverhead = nil
		hj := attack.NewHijack(s.Net.Kernel, s.Host(HostAttackerA), victim.IP(), cfg)
		s.Controller().Register(hj)
		done := false
		hj.Start(func(attack.Timeline) { done = true })
		if err := s.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		victim.InterfaceDown()
		if err := s.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("port-probing hijack did not complete")
		}
		want := AttackerLocFig2()
		for _, sp := range trace.FindByName(rec.Spans(), "host-moved") {
			if (controller.PortRef{DPID: sp.Entity, Port: sp.Port}) == want {
				if sp.Start != sp.End || sp.Parent == 0 {
					t.Fatalf("host-moved span is not a parented instant: %+v", sp)
				}
				return
			}
		}
		t.Fatalf("no host-moved span at %s", want)
	})

	t.Run("fig9-alerts", func(t *testing.T) {
		run := func(traced bool) (string, []controller.Alert, []trace.Span) {
			s := NewFig9Testbed(1, TopoGuardPlus())
			defer s.Close()
			var rec *trace.Recorder
			if traced {
				rec = s.Net.EnableTrace(0)
			}
			if err := s.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			attack.NewOOBFabrication(s.Net.Kernel, s.Host(HostAttackerA), s.Host(HostAttackerB), s.OOB,
				attack.FabricationConfig{UseAmnesia: true}).Start()
			if err := s.Run(90 * time.Second); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("%d spans dropped", rec.Dropped())
			}
			var prom strings.Builder
			if err := s.Net.Metrics().Snapshot().WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			return prom.String(), s.Controller().Alerts(), rec.Spans()
		}
		prom, alerts, spans := run(true)
		if len(alerts) == 0 {
			t.Fatal("OOB amnesia raised no alerts under TopoGuard+")
		}
		// Emission order is raise order, even for alerts sharing an instant.
		got := trace.FindByName(spans, "alert")
		if len(got) != len(alerts) {
			t.Fatalf("%d alert spans for %d alerts", len(got), len(alerts))
		}
		for i, a := range alerts {
			detail := "[" + a.Module + "] " + a.Reason + ": " + a.Detail
			if at := int64(a.At.Sub(sim.Epoch)); got[i].Start != at || got[i].Detail != detail {
				t.Fatalf("alert span %d = {%d %q}, want {%d %q}", i, got[i].Start, got[i].Detail, at, detail)
			}
		}
		if untraced, _, _ := run(false); untraced != prom {
			t.Fatalf("tracing changed the metrics:\n--- traced ---\n%s--- untraced ---\n%s", prom, untraced)
		}
	})
}
