package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/sim"
)

// Tests of the discovery-protocol dimension: sOFTDP's debounce and
// session invariants under port churn, Resume after Shutdown with
// event-driven discovery active, the deterministic OFDP stagger option,
// and the sharded byte-identity of the sOFTDP churn scenario.

// fig9Links is the directed link count of the Figure 9 testbed
// (3 trunks, both directions).
const fig9Links = 6

func newSOFTDPFig9(t *testing.T, seed int64) *Scenario {
	t.Helper()
	s := NewFig9Testbed(seed, NoDefenses(), softdpOpt())
	t.Cleanup(s.Close)
	if err := s.Run(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Controller().Links()); got != fig9Links {
		t.Fatalf("discovered %d directed links after settle, want %d", got, fig9Links)
	}
	return s
}

// TestSOFTDPFlapNoDuplicateSessions drives a host interface through two
// flap storms — multiple transitions inside one debounce window — and
// asserts the storm collapses to debounced probing without duplicating
// any BFD session or leaking an armed debounce timer.
func TestSOFTDPFlapNoDuplicateSessions(t *testing.T) {
	s := newSOFTDPFig9(t, 21)
	mgr := s.Controller().SOFTDPManager()
	if mgr == nil {
		t.Fatal("no sOFTDP manager on a sOFTDP-profile controller")
	}
	if got := mgr.SessionCount(); got != fig9Links {
		t.Fatalf("SessionCount = %d after settle, want %d", got, fig9Links)
	}

	host := s.Net.Host(HostAttackerA)
	flapStorm := func() {
		// Three transitions inside the 100 ms debounce window, then a
		// settle long enough for the armed probe to fire and drain.
		host.InterfaceDown()
		if err := s.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		host.InterfaceUp()
		if err := s.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		host.InterfaceDown()
		if err := s.Run(20 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		host.InterfaceUp()
		if err := s.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	flapStorm()
	flapStorm()

	if got := mgr.SessionCount(); got != fig9Links {
		t.Errorf("SessionCount = %d after flap storms, want %d (host churn must not mint sessions)",
			got, fig9Links)
	}
	if got := s.Controller().BFDSessionCount(); got != fig9Links {
		t.Errorf("bfd_sessions gauge = %d, want %d", got, fig9Links)
	}
	pending := s.Controller().PendingProbes()
	if pending.Discovery != 0 {
		t.Errorf("armed debounce probes leaked after drain: %d", pending.Discovery)
	}
	if got := len(s.Controller().Links()); got != fig9Links {
		t.Errorf("topology has %d directed links after flap storms, want %d", got, fig9Links)
	}
}

// TestSOFTDPResumeAfterShutdown shuts the controller's discovery
// machinery down mid-run and resumes it: while stopped no probe leaves
// and no link is evicted (sessions are retained, timers cancelled);
// after Resume the retained sessions re-arm and refresh probing picks
// back up without losing the topology.
func TestSOFTDPResumeAfterShutdown(t *testing.T) {
	s := newSOFTDPFig9(t, 22)
	ctl := s.Controller()

	ctl.Shutdown()
	probes0, _ := ctl.DiscoveryStats()
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if probes1, _ := ctl.DiscoveryStats(); probes1 != probes0 {
		t.Errorf("probes advanced %d -> %d while shut down", probes0, probes1)
	}
	if got := len(ctl.Links()); got != fig9Links {
		t.Errorf("links = %d while shut down, want %d (no timers, no evictions)", got, fig9Links)
	}

	ctl.Resume()
	// The longest refresh interval a retained session can hold is the
	// 150 s backoff cap (plus jitter), so 200 s guarantees every session
	// refreshes at least once after re-arming.
	if err := s.Run(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	if probes2, _ := ctl.DiscoveryStats(); probes2 <= probes0 {
		t.Errorf("probes static at %d after Resume, want growth", probes2)
	}
	if got := len(ctl.Links()); got != fig9Links {
		t.Errorf("links = %d after Resume, want %d", got, fig9Links)
	}
	if got := ctl.SOFTDPManager().SessionCount(); got != fig9Links {
		t.Errorf("SessionCount = %d after Resume, want %d", got, fig9Links)
	}
	if pending := ctl.PendingProbes(); pending.Discovery != 0 {
		t.Errorf("armed debounce probes leaked after Resume: %d", pending.Discovery)
	}
}

// lldpSendRecorder captures the controller's LLDP emission timeline.
type lldpSendRecorder struct {
	events []string
}

func (r *lldpSendRecorder) ModuleName() string { return "test/lldp-send-recorder" }

func (r *lldpSendRecorder) ObserveLLDPSend(ev *controller.LLDPSendEvent) {
	r.events = append(r.events, fmt.Sprintf("%d:%d@%d",
		ev.Origin.DPID, ev.Origin.Port, ev.SentAt.Sub(sim.Epoch)))
}

// TestOFDPStaggerDeterministic exercises the opt-in OFDP stagger: the
// staggered emission timeline is a pure function of the seed (two runs
// match event for event), actually differs from the default same-instant
// burst schedule, and still converges on the full topology.
func TestOFDPStaggerDeterministic(t *testing.T) {
	run := func(seed int64, stagger bool) []string {
		var opts []controller.Option
		if stagger {
			p := controller.Floodlight
			p.DiscoveryStagger = true
			opts = append(opts, controller.WithProfile(p))
		}
		s := NewFig9Testbed(seed, NoDefenses(), opts...)
		defer s.Close()
		rec := &lldpSendRecorder{}
		s.Controller().Register(rec)
		if err := s.Run(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Controller().Links()); got != fig9Links {
			t.Fatalf("stagger=%v: %d directed links, want %d", stagger, got, fig9Links)
		}
		return rec.events
	}

	staggered1 := run(7, true)
	staggered2 := run(7, true)
	if a, b := strings.Join(staggered1, "\n"), strings.Join(staggered2, "\n"); a != b {
		t.Fatalf("same-seed staggered timelines diverge:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
	burst := run(7, false)
	if strings.Join(staggered1, "\n") == strings.Join(burst, "\n") {
		t.Fatal("staggered timeline identical to the default burst schedule — stagger had no effect")
	}
}

// TestSOFTDPShardedByteIdentical runs the churn-heavy sOFTDP scenario
// across the full shard/parallel sweep and asserts every configuration
// reproduces the serial reference fingerprint with zero leaked probes —
// the gate that keeps event-driven discovery inside the sharded kernel's
// equivalence guarantee.
func TestSOFTDPShardedByteIdentical(t *testing.T) {
	rows, err := RunDiscoveryByteIdentity(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(discoveryIdentityConfigs) {
		t.Fatalf("ran %d configurations, want %d", len(rows), len(discoveryIdentityConfigs))
	}
	for _, r := range rows {
		if r.Leaked != 0 {
			t.Errorf("shards=%d parallel=%v: %d pending probes leaked", r.Shards, r.Parallel, r.Leaked)
		}
		if r.Fingerprint != rows[0].Fingerprint {
			t.Errorf("shards=%d parallel=%v: fingerprint diverges from serial reference", r.Shards, r.Parallel)
		}
	}
}

// TestDiscoveryMatrix pins the attack matrix under the discovery-protocol
// dimension at seed 1. The adaptive attacker against sOFTDP with the
// full stack reads blocked at every seed from 1 to 20; before the LLI
// kept bootstrap round trips out of its fence it read blocked 8 times,
// detected 8 times and undetected 4 times over the same seeds.
func TestDiscoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := RunDiscoveryMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []DiscoveryMatrixRow{
		{"naive link fabrication (LLDP relay)", Blocked, Failed, Failed},
		{"OOB port amnesia + link fabrication", Blocked, Failed, Failed},
		{"in-band port amnesia + link fabrication", Blocked, Failed, Failed},
		{"naive host hijack (victim online)", Blocked, Blocked, Undetected},
		{"port probing + host hijack (victim in transit)", Undetected, Undetected, Undetected},
		{"distributed SYN flood (spoofed sources)", Blocked, Blocked, Undetected},
		{"distributed link saturation (UDP)", Blocked, Blocked, Undetected},
		{"adaptive OOB amnesia (re-flap after bridge)", Blocked, Blocked, Undetected},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], w)
		}
	}
}
