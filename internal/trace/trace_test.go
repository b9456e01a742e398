package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/lldp"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

func TestSummarizeARP(t *testing.T) {
	req := packet.NewARPRequest(packet.MustMAC("aa:aa:aa:aa:aa:aa"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2")).Marshal()
	got := Summarize(req)
	for _, want := range []string{"ARP who-has 10.0.0.2", "tell 10.0.0.1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
	rep := packet.NewARPReply(packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"),
		packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1")).Marshal()
	if got := Summarize(rep); !strings.Contains(got, "10.0.0.2 is-at bb:bb:bb:bb:bb:bb") {
		t.Fatalf("reply summary = %q", got)
	}
}

func TestSummarizeICMPAndTCPAndUDP(t *testing.T) {
	echo := packet.NewICMPEcho(packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"), 7, 9, false).Marshal()
	if got := Summarize(echo); !strings.Contains(got, "echo request id=7 seq=9") {
		t.Fatalf("icmp summary = %q", got)
	}
	syn := packet.NewTCPSegment(packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"), 40000, 443, packet.TCPSyn, 5, 0, nil).Marshal()
	got := Summarize(syn)
	if !strings.Contains(got, "TCP 40000 > 443 [SYN]") {
		t.Fatalf("tcp summary = %q", got)
	}
	u := &packet.UDP{SrcPort: 1, DstPort: 2, Payload: []byte("xyz")}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.MustIPv4("10.0.0.1"), Dst: packet.MustIPv4("10.0.0.2"), Payload: u.Marshal()}
	eth := &packet.Ethernet{Dst: packet.MustMAC("bb:bb:bb:bb:bb:bb"), Src: packet.MustMAC("aa:aa:aa:aa:aa:aa"), Type: packet.EtherTypeIPv4, Payload: ip.Marshal()}
	if got := Summarize(eth.Marshal()); !strings.Contains(got, "UDP 1 > 2 len=3") {
		t.Fatalf("udp summary = %q", got)
	}
}

func TestSummarizeLLDP(t *testing.T) {
	k, err := lldp.NewKeychain([]byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	f := &lldp.Frame{ChassisID: 0x2, PortID: 1, TTLSecs: 120}
	s := k.NewSigner()
	f.Timestamp = s.SealTimestamp(time.Unix(1, 0))
	s.Sign(f)
	got := Summarize(lldp.NewEthernet(packet.MustMAC("0e:00:00:00:00:01"), f).Marshal())
	for _, want := range []string{"LLDP chassis=0x2 port=1", "+hmac", "+timestamp"} {
		if !strings.Contains(got, want) {
			t.Fatalf("lldp summary %q missing %q", got, want)
		}
	}
}

func TestSummarizeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		_ = Summarize(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLogBoundedAndOrdered(t *testing.T) {
	k := sim.New()
	l := NewLog(k, 3)
	for i := 0; i < 5; i++ {
		i := i
		k.Schedule(time.Duration(i)*time.Millisecond, func() { l.Addf("t", "event %d", i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	events := l.Events()
	if len(events) != 3 {
		t.Fatalf("retained = %d, want 3", len(events))
	}
	if events[0].Detail != "event 2" || events[2].Detail != "event 4" {
		t.Fatalf("eviction order wrong: %v", events)
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d", l.Total())
	}
	if !strings.Contains(l.String(), "event 3") {
		t.Fatal("render missing event")
	}
}

func TestTapHostPreservesHooks(t *testing.T) {
	k := sim.New()
	lk := link.NewLink(k, sim.Const(time.Millisecond))
	a := dataplane.NewHost(k, "a", packet.MustMAC("aa:aa:aa:aa:aa:01"), packet.MustIPv4("10.0.0.1"), lk, link.EndA)
	b := dataplane.NewHost(k, "b", packet.MustMAC("aa:aa:aa:aa:aa:02"), packet.MustIPv4("10.0.0.2"), lk, link.EndB)

	hookHits := 0
	b.OnFrame = func(*packet.Ethernet, []byte) bool { hookHits++; return false }
	log := NewLog(k, 16)
	log.TapHost(b, "b-nic")

	var alive bool
	a.ARPPing(b.IP(), 100*time.Millisecond, func(r dataplane.ProbeResult) { alive = r.Alive })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !alive {
		t.Fatal("tap broke the responder chain")
	}
	if hookHits == 0 {
		t.Fatal("previous hook not preserved")
	}
	events := log.Events()
	if len(events) == 0 || !strings.Contains(events[0].Detail, "ARP who-has") {
		t.Fatalf("tap events = %v", events)
	}
}
