package netsim

import (
	"testing"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/sim"
)

func TestFatTreeCounts(t *testing.T) {
	cases := []struct {
		k, switches, hosts, trunks int
	}{
		{2, 5, 2, 4},
		{4, 20, 16, 32},
		{8, 80, 128, 256},
	}
	for _, tc := range cases {
		n := New(1)
		topo := BuildFatTree(n, tc.k, sim.Const(time.Millisecond), nil)
		if got := topo.Switches(); got != tc.switches {
			t.Errorf("k=%d: %d switches, want %d", tc.k, got, tc.switches)
		}
		if got := topo.Hosts(); got != tc.hosts {
			t.Errorf("k=%d: %d hosts, want %d", tc.k, got, tc.hosts)
		}
		if got := len(n.Trunks()); got != tc.trunks {
			t.Errorf("k=%d: %d trunks, want %d", tc.k, got, tc.trunks)
		}
	}
}

func TestFatTreeRejectsBadArity(t *testing.T) {
	for _, k := range []int{0, 1, 3, 7, 17, 34} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			BuildFatTree(New(1), k, nil, nil)
		}()
	}
}

// recordingBuilder satisfies Builder without any simulation machinery,
// so structural invariants can be checked cheaply up to k=32.
type recordingBuilder struct {
	switches []uint64
	hosts    []recordedHost
}

type recordedHost struct {
	name, mac, ip string
	dpid          uint64
	port          uint32
}

func (r *recordingBuilder) AddSwitch(dpid uint64, _ sim.Sampler) *dataplane.Switch {
	r.switches = append(r.switches, dpid)
	return nil
}

func (r *recordingBuilder) AddHost(name, mac, ip string, dpid uint64, port uint32, _ sim.Sampler, _ ...dataplane.HostOption) *dataplane.Host {
	r.hosts = append(r.hosts, recordedHost{name, mac, ip, dpid, port})
	return nil
}

func (r *recordingBuilder) AddTrunk(uint64, uint32, uint64, uint32, sim.Sampler) *link.Link {
	return nil
}

// TestFatTreeStructuralInvariants checks, for every supported arity, the
// properties the rest of the repo assumes of the addressing scheme: DPIDs
// unique across tiers (the k=32 regression this PR fixes), every edge
// switch wired to all k/2 aggregation switches of its pod, every core
// switch reaching each pod exactly once, and host MAC/IP uniqueness.
func TestFatTreeStructuralInvariants(t *testing.T) {
	for k := 2; k <= 32; k += 2 {
		half := k / 2
		rb := &recordingBuilder{}
		topo := BuildFatTree(rb, k, nil, nil)

		if got, want := len(rb.switches), half*half+k*k; got != want {
			t.Fatalf("k=%d: %d switches, want %d", k, got, want)
		}
		seen := make(map[uint64]bool, len(rb.switches))
		for _, dpid := range rb.switches {
			if seen[dpid] {
				t.Fatalf("k=%d: duplicate DPID 0x%x", k, dpid)
			}
			seen[dpid] = true
		}

		// Uplink / downlink structure from the trunk records.
		edgeUplinks := make(map[uint64]int)
		corePods := make(map[uint64]map[int]int)
		for _, tr := range topo.Trunks {
			aTier, _, _, ok := FatTreeLocate(k, tr.ADPID)
			if !ok {
				t.Fatalf("k=%d: trunk A 0x%x not locatable", k, tr.ADPID)
			}
			bTier, bPod, _, ok := FatTreeLocate(k, tr.BDPID)
			if !ok {
				t.Fatalf("k=%d: trunk B 0x%x not locatable", k, tr.BDPID)
			}
			switch {
			case aTier == FatTreeEdge && bTier == FatTreeAgg:
				edgeUplinks[tr.ADPID]++
			case aTier == FatTreeAgg && bTier == FatTreeCore:
				aPod := mustPod(t, k, tr.ADPID)
				if corePods[tr.BDPID] == nil {
					corePods[tr.BDPID] = make(map[int]int)
				}
				corePods[tr.BDPID][aPod]++
				_ = bPod
			default:
				t.Fatalf("k=%d: unexpected trunk tiers %v->%v", k, aTier, bTier)
			}
		}
		for _, e := range topo.EdgeDPIDs {
			if edgeUplinks[e] != half {
				t.Fatalf("k=%d: edge 0x%x has %d uplinks, want %d", k, e, edgeUplinks[e], half)
			}
		}
		for _, c := range topo.CoreDPIDs {
			pods := corePods[c]
			if len(pods) != k {
				t.Fatalf("k=%d: core 0x%x reaches %d pods, want %d", k, c, len(pods), k)
			}
			for pod, n := range pods {
				if n != 1 {
					t.Fatalf("k=%d: core 0x%x reaches pod %d %d times", k, c, pod, n)
				}
			}
		}

		// Host identity uniqueness.
		if got, want := len(rb.hosts), k*k*k/4; got != want {
			t.Fatalf("k=%d: %d hosts, want %d", k, got, want)
		}
		macs := make(map[string]bool, len(rb.hosts))
		ips := make(map[string]bool, len(rb.hosts))
		for _, h := range rb.hosts {
			if macs[h.mac] {
				t.Fatalf("k=%d: duplicate MAC %s", k, h.mac)
			}
			if ips[h.ip] {
				t.Fatalf("k=%d: duplicate IP %s", k, h.ip)
			}
			macs[h.mac] = true
			ips[h.ip] = true
			if h.port < 1 || int(h.port) > half {
				t.Fatalf("k=%d: host %s on access port %d", k, h.name, h.port)
			}
		}
	}
}

func mustPod(t *testing.T, k int, dpid uint64) int {
	t.Helper()
	_, pod, _, ok := FatTreeLocate(k, dpid)
	if !ok || pod < 0 {
		t.Fatalf("k=%d: no pod for DPID 0x%x", k, dpid)
	}
	return pod
}

// TestFatTreeDPIDsStableAtLegacyArity pins the k ≤ 16 addressing so
// pinned figure/alert output from earlier PRs stays byte-identical.
func TestFatTreeDPIDsStableAtLegacyArity(t *testing.T) {
	if got := FatTreeCoreDPID(4, 0); got != 0x100 {
		t.Fatalf("core = 0x%x", got)
	}
	if got := FatTreeAggDPID(16, 15, 7); got != 0x200+15*16+7 {
		t.Fatalf("agg = 0x%x", got)
	}
	if got := FatTreeEdgeDPID(16, 15, 7); got != 0x300+15*16+7 {
		t.Fatalf("edge = 0x%x", got)
	}
	// The widened bases engage above k=16; the k=32 worst case that used
	// to collide with the edge tier no longer can.
	if got := FatTreeAggDPID(32, 31, 15); got != 0x20000+31*16+15 {
		t.Fatalf("wide agg = 0x%x", got)
	}
}

func TestFatTreeDiscoveryAndReachability(t *testing.T) {
	n := New(7)
	BuildFatTree(n, 4, sim.Const(time.Millisecond), nil)
	if err := n.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Every trunk should be discovered in both directions.
	if got, want := len(n.Controller.Links()), 2*len(n.Trunks()); got != want {
		t.Fatalf("discovered %d directed links, want %d", got, want)
	}
	// A cross-pod ARP ping resolves once reactive forwarding learns paths.
	a, b := n.Host("p0-e0-h0"), n.Host("p3-e1-h1")
	var got dataplane.ProbeResult
	a.ARPPing(b.IP(), 5*time.Second, func(r dataplane.ProbeResult) { got = r })
	if err := n.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !got.Alive {
		t.Fatal("cross-pod ARP ping did not resolve")
	}
	if got.MAC != b.MAC() {
		t.Fatalf("ARP resolved to %v, want %v", got.MAC, b.MAC())
	}
	n.Shutdown()
}
