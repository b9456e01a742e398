package netsim_test

import (
	"testing"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/obs"
	"sdntamper/internal/sim"
)

// constructors builds every network test both ways: the one-shard
// shared-stream network of New, and a two-shard NewSharded network with
// switch 0x2 placed on shard 1, so its trunks and control channel cross
// the shard boundary.
var constructors = []struct {
	name  string
	build func(seed int64) *netsim.Network
}{
	{"New", func(seed int64) *netsim.Network { return netsim.New(seed) }},
	{"NewSharded", func(seed int64) *netsim.Network { return netsim.NewSharded(seed, 2, map[uint64]int{0x2: 1}) }},
}

// forEachNetwork runs body as one subtest per constructor.
func forEachNetwork(t *testing.T, body func(t *testing.T, newNet func(seed int64) *netsim.Network)) {
	for _, c := range constructors {
		t.Run(c.name, func(t *testing.T) { body(t, c.build) })
	}
}

func TestAssembleAndHandshake(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(1)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddSwitch(0x2, nil)
		n.AddTrunk(0x1, 3, 0x2, 3, nil)
		h := n.AddHost("h1", "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x1, 1, nil)
		if err := n.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(n.Controller.Switches()) != 2 {
			t.Fatal("switches not registered")
		}
		if n.Switch(0x1) == nil || n.Switch(0x3) != nil {
			t.Fatal("switch lookup wrong")
		}
		if n.Host("h1") != h || n.Host("nope") != nil {
			t.Fatal("host lookup wrong")
		}
		if loc := n.HostLocation("h1"); loc.DPID != 0x1 || loc.Port != 1 {
			t.Fatalf("host location = %v", loc)
		}
	})
}

func TestAddHostUnknownSwitchPanics(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		n := newNet(1)
		defer n.Shutdown()
		n.AddHost("h1", "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x9, 1, nil)
	})
}

func TestAddTrunkUnknownSwitchPanics(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		n := newNet(1)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddTrunk(0x1, 3, 0x9, 3, nil)
	})
}

func TestOOBChannelIndependentOfSDN(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(1)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddHost("h1", "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x1, 1, nil)
		ch := n.AddOOBChannel(sim.Const(10 * time.Millisecond))
		var got []byte
		var at time.Duration
		ch.OnReceive(link.EndB, func(b []byte) { got = append([]byte(nil), b...); at = n.Kernel.Elapsed() })
		ch.Send(link.EndA, []byte("covert"))
		if err := n.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if string(got) != "covert" || at != 10*time.Millisecond {
			t.Fatalf("oob delivery: %q at %v", got, at)
		}
	})
}

func TestMoveHostCreatesNewAttachment(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(1)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddSwitch(0x2, nil)
		n.AddTrunk(0x1, 3, 0x2, 3, nil)
		old := n.AddHost("v", "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x1, 1, nil)
		if err := n.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		old.InterfaceDown()
		if err := n.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		reborn := n.MoveHost("v2", "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x2, 4, nil)
		if reborn == nil || n.Host("v2") != reborn {
			t.Fatal("moved host not registered")
		}
		if loc := n.HostLocation("v2"); loc.DPID != 0x2 || loc.Port != 4 {
			t.Fatalf("new location = %v", loc)
		}
	})
}

func TestDefaultLatencySamplers(t *testing.T) {
	k := sim.New(sim.WithSeed(3))
	ctl := netsim.DefaultControlLatency()
	for i := 0; i < 100; i++ {
		d := ctl.Sample(k.Rand())
		if d < 500*time.Microsecond || d > 4*time.Millisecond {
			t.Fatalf("control latency sample %v out of range", d)
		}
	}
	trunk := netsim.TestbedTrunkLatency()
	bursts := 0
	for i := 0; i < 5000; i++ {
		d := trunk.Sample(k.Rand())
		if d < 4*time.Millisecond {
			t.Fatalf("trunk sample %v below floor", d)
		}
		if d > 9*time.Millisecond {
			bursts++
		}
	}
	if bursts == 0 {
		t.Fatal("no micro-bursts sampled (Figure 10 needs them)")
	}
	if bursts > 400 {
		t.Fatalf("bursts = %d/5000, want ~2%%", bursts)
	}
}

func TestTwoHostsSameSwitchConnectivity(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(5)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		a := n.AddHost("a", "aa:aa:aa:aa:aa:01", "10.0.0.1", 0x1, 1, sim.Const(time.Millisecond))
		b := n.AddHost("b", "aa:aa:aa:aa:aa:02", "10.0.0.2", 0x1, 2, sim.Const(time.Millisecond))
		if err := n.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		var ok bool
		a.Ping(b.MAC(), b.IP(), 500*time.Millisecond, func(r dataplane.ProbeResult) { ok = r.Alive })
		if err := n.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("same-switch ping failed")
		}
	})
}

func TestTrunksAndControlChannelAccessors(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(1)
		defer n.Shutdown()
		n.AddSwitch(0x2, nil)
		n.AddSwitch(0x1, nil)
		tr := n.AddTrunk(0x1, 3, 0x2, 3, nil)
		if got := n.Trunks(); len(got) != 1 || got[0] != tr {
			t.Fatalf("Trunks() = %v", got)
		}
		if ids := n.SwitchIDs(); len(ids) != 2 || ids[0] != 0x1 || ids[1] != 0x2 {
			t.Fatalf("SwitchIDs() = %v, want ascending [1 2]", ids)
		}
		if n.ControlChannel(0x1) == nil || n.ControlChannel(0x9) != nil {
			t.Fatal("control channel lookup wrong")
		}
	})
}

// TestDisconnectSwitchEvictsStateAndReconnectRecovers severs and restores
// switch 0x2, which NewSharded places on shard 1: its control channel
// crosses the shard boundary, and recovery must look the same as on the
// one-shard network.
func TestDisconnectSwitchEvictsStateAndReconnectRecovers(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(7)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddSwitch(0x2, nil)
		n.AddTrunk(0x1, 3, 0x2, 3, nil)
		// Let discovery verify the trunk in both directions.
		if err := n.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := len(n.Controller.Links()); got != 2 {
			t.Fatalf("links before disconnect = %d, want 2", got)
		}

		if !n.DisconnectSwitch(0x2) {
			t.Fatal("DisconnectSwitch(0x2) = false")
		}
		if n.DisconnectSwitch(0x9) {
			t.Fatal("DisconnectSwitch of unknown switch = true")
		}
		if got := len(n.Controller.Links()); got != 0 {
			t.Fatalf("links after disconnect = %d, want 0 (both directions touch 0x2)", got)
		}
		if got := len(n.Controller.Switches()); got != 1 {
			t.Fatalf("connected switches after disconnect = %d", got)
		}

		if !n.ReconnectSwitch(0x2) {
			t.Fatal("ReconnectSwitch(0x2) = false")
		}
		// Reconnect handshake + port probe + next discovery round restore the
		// topology well within one discovery interval plus slack.
		if err := n.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := len(n.Controller.Switches()); got != 2 {
			t.Fatalf("connected switches after reconnect = %d", got)
		}
		if got := len(n.Controller.Links()); got != 2 {
			t.Fatalf("links after reconnect = %d, want rediscovered trunk both ways", got)
		}
	})
}

// TestMergedMetricsCountsEveryEventOnce checks the merged executed-event
// counter against the group total on both constructors. A New network
// already counts its events through the kernel step hook, so merging
// must not add the group total on top.
func TestMergedMetricsCountsEveryEventOnce(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, newNet func(int64) *netsim.Network) {
		n := newNet(3)
		defer n.Shutdown()
		n.AddSwitch(0x1, nil)
		n.AddSwitch(0x2, nil)
		n.AddTrunk(0x1, 3, 0x2, 3, nil)
		if err := n.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		want := n.Group.Executed()
		if want == 0 {
			t.Fatal("no events executed")
		}
		if got := n.MergedMetrics().Counter(obs.MetricSimEvents).Value(); got != want {
			t.Fatalf("merged %s = %d, want Group.Executed() = %d", obs.MetricSimEvents, got, want)
		}
	})
}
