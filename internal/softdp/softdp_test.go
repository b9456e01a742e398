package softdp

import (
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/sim"
)

type harness struct {
	k       *sim.Kernel
	mgr     *Manager
	probes  []string // "at:port" emission log
	evicts  []string // "at:link:reason" eviction log
	alive   map[Link]bool
	anchor  map[Link]bool
	gaugeN  int
	gaugeHi int
}

func newHarness(t *testing.T, seed int64, cfg Config) *harness {
	t.Helper()
	h := &harness{
		k:      sim.New(sim.WithSeed(seed)),
		alive:  make(map[Link]bool),
		anchor: make(map[Link]bool),
	}
	h.mgr = NewManager(seed, cfg, Hooks{
		Schedule: h.k.Schedule,
		EmitProbe: func(p Port) {
			h.probes = append(h.probes, fmt.Sprintf("%d:%s", h.k.Elapsed(), p))
		},
		Evict: func(l Link, reason string) {
			h.evicts = append(h.evicts, fmt.Sprintf("%d:%s:%s", h.k.Elapsed(), l, reason))
		},
		PathState: func(l Link) (bool, bool) {
			key := normLink(l)
			return h.alive[key], h.anchor[key]
		},
		Sessions: func(n int) {
			h.gaugeN = n
			if n > h.gaugeHi {
				h.gaugeHi = n
			}
		},
	})
	return h
}

// normLink folds a directed link onto its unordered path identity for the
// harness's anchor tables.
func normLink(l Link) Link {
	if l.Dst.DPID < l.Src.DPID || (l.Dst.DPID == l.Src.DPID && l.Dst.No < l.Src.No) {
		return l.Reverse()
	}
	return l
}

func (h *harness) setPath(l Link, alive, anchored bool) {
	key := normLink(l)
	h.alive[key] = alive
	h.anchor[key] = anchored
}

func (h *harness) run(d time.Duration) {
	if err := h.k.RunFor(d); err != nil {
		panic(err)
	}
}

var (
	p1  = Port{DPID: 0x1, No: 3}
	p2  = Port{DPID: 0x2, No: 3}
	l12 = Link{Src: p1, Dst: p2}
	l21 = Link{Src: p2, Dst: p1}
)

// A flapping port must collapse into one probe and leak nothing: each
// event inside the debounce window re-arms the single pending timer.
func TestPortFlapDebounce(t *testing.T) {
	h := newHarness(t, 7, Config{})
	for i := 0; i < 10; i++ {
		h.mgr.PortEvent(p1)
		h.run(10 * time.Millisecond) // well inside the 100 ms debounce
	}
	if got := h.mgr.PendingProbes(); got != 1 {
		t.Fatalf("pending probes after flap storm = %d, want 1", got)
	}
	h.run(300 * time.Millisecond)
	if len(h.probes) != 1 {
		t.Fatalf("flap storm emitted %d probes, want 1: %v", len(h.probes), h.probes)
	}
	if got := h.mgr.PendingProbes(); got != 0 {
		t.Fatalf("pending probes leaked after drain: %d", got)
	}
}

// A flap ending in port-down must emit nothing at all.
func TestPortDownCancelsPending(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.mgr.PortEvent(p1)
	h.mgr.PortDown(p1)
	h.run(time.Second)
	if len(h.probes) != 0 {
		t.Fatalf("probe emitted after port-down: %v", h.probes)
	}
	if got := h.mgr.PendingProbes(); got != 0 {
		t.Fatalf("pending probes leaked: %d", got)
	}
}

// Repeated LinkSeen on one link must keep exactly one session (no
// duplicates from flapping rediscovery) and back its refresh cadence off
// toward RefreshMax.
func TestSessionDedupAndBackoff(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.setPath(l21, true, true)
	for i := 0; i < 8; i++ {
		h.mgr.LinkSeen(l12, i == 0)
		h.mgr.LinkSeen(l21, i == 0)
	}
	if h.mgr.SessionCount() != 2 {
		t.Fatalf("sessions = %d, want 2", h.mgr.SessionCount())
	}
	if h.gaugeHi != 2 {
		t.Fatalf("session gauge peak = %d, want 2", h.gaugeHi)
	}
	// Steady state: refreshes at RefreshMax cadence, two sessions ->
	// inside any 400 s window at most ~2*ceil(400/150*1.2) emissions.
	h.run(400 * time.Second)
	if n := len(h.probes); n == 0 || n > 10 {
		t.Fatalf("steady-state probes in 400s = %d, want (0, 10]", n)
	}
}

// An anchored link whose path dies must be evicted within the BFD detect
// window, not the refresh timeout.
func TestBFDDetectsPathFault(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.mgr.LinkSeen(l21, true)
	h.run(time.Second)

	h.setPath(l12, false, true)
	h.mgr.PathState(p1, p2, false)
	h.run(time.Second)
	if len(h.evicts) != 2 {
		t.Fatalf("evictions = %v, want both directions", h.evicts)
	}
	for _, e := range h.evicts {
		if want := ":bfd-down"; e[len(e)-len(want):] != want {
			t.Fatalf("eviction reason not bfd-down: %s", e)
		}
	}
	if h.mgr.SessionCount() != 0 {
		t.Fatalf("sessions survived bfd-down: %d", h.mgr.SessionCount())
	}
}

// A path flap shorter than the detect window must NOT evict.
func TestBFDFlapInsideDetectWindow(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.mgr.LinkSeen(l21, true)

	h.setPath(l12, false, true)
	h.mgr.PathState(p1, p2, false)
	h.run(50 * time.Millisecond) // < 300 ms detect
	h.setPath(l12, true, true)
	h.mgr.PathState(p1, p2, true)
	h.run(2 * time.Second)
	if len(h.evicts) != 0 {
		t.Fatalf("flap inside detect window evicted: %v", h.evicts)
	}
}

// Path recovery with sessions already gone must re-probe both endpoints.
func TestPathRecoveryReprobes(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.setPath(l12, false, true)
	h.mgr.PathState(p1, p2, false)
	h.run(time.Second) // evicts l12
	h.probes = nil

	h.setPath(l12, true, true)
	h.mgr.PathState(p1, p2, true)
	h.run(time.Second)
	if len(h.probes) != 2 {
		t.Fatalf("recovery probes = %v, want both endpoints", h.probes)
	}
}

// An unanchored link (no physical path — a fabricated link) must fall to
// the refresh timeout when no LinkSeen confirms it.
func TestUnanchoredRefreshTimeout(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.mgr.LinkSeen(l12, true) // PathState reports anchored=false
	h.run(120 * time.Second)  // > 3 * 15s * 1.2 jitter headroom
	if len(h.evicts) != 1 {
		t.Fatalf("evictions = %v, want one refresh-timeout", h.evicts)
	}
	if want := ":refresh-timeout"; h.evicts[0][len(h.evicts[0])-len(want):] != want {
		t.Fatalf("eviction reason: %s", h.evicts[0])
	}
}

// An anchored link whose path stays alive must never be evicted by
// missed refreshes (partial loss eating LLDP is not link death).
func TestAnchoredSurvivesMissedRefreshes(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.run(1000 * time.Second) // many deadline firings, zero confirmations
	if len(h.evicts) != 0 {
		t.Fatalf("anchored link evicted despite live path: %v", h.evicts)
	}
	if h.mgr.SessionCount() != 1 {
		t.Fatalf("session lost: %d", h.mgr.SessionCount())
	}
}

// One-sided discovery must schedule a probe of the far endpoint so the
// reverse link converges.
func TestReverseConvergenceProbe(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.run(time.Second)
	if len(h.probes) != 1 {
		t.Fatalf("probes = %v, want one of far endpoint", h.probes)
	}
	// Once both directions exist, no further convergence probes.
	h.probes = nil
	h.mgr.LinkSeen(l21, true)
	h.mgr.LinkSeen(l12, false)
	h.run(time.Second)
	if len(h.probes) != 0 {
		t.Fatalf("converged pair still probing: %v", h.probes)
	}
}

// Stop must cancel every timer; Resume must re-arm retained sessions.
func TestStopResume(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.mgr.PortEvent(p2)
	h.mgr.Stop()
	if got := h.mgr.PendingProbes(); got != 0 {
		t.Fatalf("pending probes after Stop: %d", got)
	}
	h.run(400 * time.Second)
	if len(h.probes) != 0 {
		t.Fatalf("probes emitted while stopped: %v", h.probes)
	}
	if h.mgr.SessionCount() != 1 {
		t.Fatalf("Stop dropped sessions: %d", h.mgr.SessionCount())
	}
	h.mgr.Resume()
	h.run(400 * time.Second)
	if len(h.probes) == 0 {
		t.Fatal("no refresh probes after Resume")
	}
}

// SwitchGone must drop every session and pending probe touching the
// switch without firing evictions (the controller already evicted).
func TestSwitchGone(t *testing.T) {
	h := newHarness(t, 7, Config{})
	h.setPath(l12, true, true)
	h.mgr.LinkSeen(l12, true)
	h.mgr.LinkSeen(l21, true)
	h.run(time.Second) // drain the convergence probes
	h.probes = nil
	h.mgr.PortEvent(p1)
	h.mgr.SwitchGone(0x1)
	if h.mgr.SessionCount() != 0 {
		t.Fatalf("sessions survived SwitchGone: %d", h.mgr.SessionCount())
	}
	if got := h.mgr.PendingProbes(); got != 0 {
		t.Fatalf("pending probes survived SwitchGone: %d", got)
	}
	if len(h.evicts) != 0 {
		t.Fatalf("SwitchGone fired evictions: %v", h.evicts)
	}
	h.run(500 * time.Second)
	if len(h.probes) != 0 {
		t.Fatalf("dead switch still probing: %v", h.probes)
	}
}

// Identical seeds must produce identical emission/eviction timelines;
// timer jitter derives from MixSeed, never from kernel RNG state.
func TestDeterministicTimelines(t *testing.T) {
	runOnce := func() ([]string, []string) {
		h := newHarness(t, 42, Config{})
		h.setPath(l12, true, true)
		h.mgr.LinkSeen(l12, true)
		h.mgr.LinkSeen(l21, true)
		h.run(200 * time.Second)
		h.setPath(l12, false, true)
		h.mgr.PathState(p1, p2, false)
		h.run(100 * time.Second)
		return h.probes, h.evicts
	}
	p1s, e1 := runOnce()
	p2s, e2 := runOnce()
	if fmt.Sprint(p1s) != fmt.Sprint(p2s) {
		t.Fatalf("probe timelines diverge:\n%v\n%v", p1s, p2s)
	}
	if fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("eviction timelines diverge:\n%v\n%v", e1, e2)
	}
}

// TestJitterMixInputOrder pins the MixSeed input order — tag, ids, seq —
// so every jittered timer keeps the value it had when the input was a
// heap-built slice.
func TestJitterMixInputOrder(t *testing.T) {
	m := NewManager(11, Config{}, Hooks{})
	l := Link{Src: Port{DPID: 5, No: 6}, Dst: Port{DPID: 7, No: 8}}
	s := &session{link: l, jitterSeq: 41}
	want := func(d time.Duration, tag, seq uint64, ids ...uint64) time.Duration {
		mix := sim.MixSeed(11, append(append([]uint64{tag}, ids...), seq)...)
		frac := float64(uint64(mix)>>11) / float64(1<<53)
		return time.Duration(float64(d) * (1 + m.cfg.JitterFrac*(2*frac-1)))
	}
	if got, w := m.linkJitter(time.Second, jitterTagDetect, s), want(time.Second, jitterTagDetect, 42, 5, 6, 7, 8); got != w {
		t.Fatalf("link jitter = %v, want %v", got, w)
	}
	if got, w := m.jitter(time.Second, jitterTagProbe, 3, 5, 6), want(time.Second, jitterTagProbe, 3, 5, 6); got != w {
		t.Fatalf("port jitter = %v, want %v", got, w)
	}
}
