package link

import (
	"sync"
	"testing"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// recorder is a test Attachment that logs frames and carrier changes with
// their arrival times. As each frame's last owner it keeps a copy of the
// bytes and releases the frame.
type recorder struct {
	kernel   *sim.Kernel
	frames   [][]byte
	times    []time.Duration
	carriers []bool
}

func (r *recorder) ReceiveFrame(f *Frame) {
	r.frames = append(r.frames, append([]byte(nil), f.Data...))
	r.times = append(r.times, r.kernel.Elapsed())
	f.Release()
}

func (r *recorder) CarrierChange(up bool) { r.carriers = append(r.carriers, up) }

func newPair(t *testing.T, latency sim.Sampler) (*sim.Kernel, *Endpoint, *Endpoint, *recorder, *recorder) {
	t.Helper()
	k := sim.New()
	l := NewLink(k, latency)
	ra := &recorder{kernel: k}
	rb := &recorder{kernel: k}
	ea := NewEndpoint(l, EndA, ra)
	eb := NewEndpoint(l, EndB, rb)
	return k, ea, eb, ra, rb
}

func TestLinkDeliversWithLatency(t *testing.T) {
	k, ea, _, _, rb := newPair(t, sim.Const(5*time.Millisecond))
	ea.Send(NewFrame([]byte{1, 2, 3}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(rb.frames))
	}
	if rb.times[0] != 5*time.Millisecond {
		t.Fatalf("arrival = %v, want 5ms", rb.times[0])
	}
}

func TestLinkBidirectional(t *testing.T) {
	k, ea, eb, ra, rb := newPair(t, sim.Const(time.Millisecond))
	ea.Send(NewFrame([]byte{1}))
	eb.Send(NewFrame([]byte{2}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ra.frames) != 1 || len(rb.frames) != 1 {
		t.Fatalf("frames a=%d b=%d, want 1/1", len(ra.frames), len(rb.frames))
	}
	if ra.frames[0][0] != 2 || rb.frames[0][0] != 1 {
		t.Fatal("frames crossed over incorrectly")
	}
}

// keeper is a test Attachment that takes delivered frames and holds
// them unreleased, so a test can inspect what it was handed.
type keeper struct{ frames []*Frame }

func (k *keeper) ReceiveFrame(f *Frame) { k.frames = append(k.frames, f) }
func (k *keeper) CarrierChange(bool)    {}

// TestLinkSendTakesOwnership pins the wire-frame contract: the link hands
// the peer the very frame it was sent, with no per-hop copy. The one copy
// a frame gets is made where it enters the dataplane (see
// dataplane.TestHostSendRawCopiesScratch).
func TestLinkSendTakesOwnership(t *testing.T) {
	k := sim.New()
	l := NewLink(k, sim.Const(0))
	peer := &keeper{}
	l.Attach(EndB, peer)
	f := NewFrame([]byte{9, 8, 7})
	l.Send(EndA, f)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(peer.frames) != 1 || peer.frames[0] != f {
		t.Fatal("link did not deliver the frame it was sent")
	}
	if f.released {
		t.Fatal("link released a frame it delivered")
	}
	f.Release()
}

// TestLinkDropsReleaseFrames checks that every way a link loses a frame
// returns it to the pool: a carrier down at send, injected loss, a
// carrier lost in flight, and a peer that was never attached.
func TestLinkDropsReleaseFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *sim.Kernel, l *Link, f *Frame)
	}{
		{"carrier-down-at-send", func(k *sim.Kernel, l *Link, f *Frame) {
			l.SetCarrier(EndB, false)
			l.Send(EndA, f)
		}},
		{"injected-loss", func(k *sim.Kernel, l *Link, f *Frame) {
			l.SetLossRate(1)
			l.Send(EndA, f)
		}},
		{"carrier-lost-in-flight", func(k *sim.Kernel, l *Link, f *Frame) {
			l.Send(EndA, f)
			k.Schedule(time.Millisecond, func() { l.SetCarrier(EndB, false) })
		}},
		{"no-peer", func(k *sim.Kernel, l *Link, f *Frame) {
			l.Attach(EndB, nil)
			l.Send(EndA, f)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			l := NewLink(k, sim.Const(5*time.Millisecond))
			peer := &keeper{}
			l.Attach(EndB, peer)
			f := NewFrame([]byte{1, 2, 3})
			tc.run(k, l, f)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(peer.frames) != 0 {
				t.Fatal("dropped frame was delivered")
			}
			if !f.released {
				t.Fatal("dropped frame was not released")
			}
		})
	}
}

// TestFrameDoubleReleasePanics pins the ownership check that stays on in
// every build: a frame released twice had two holders.
func TestFrameDoubleReleasePanics(t *testing.T) {
	f := NewFrame([]byte{1})
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	f.Release()
}

// TestFramePoolAcrossGoroutines hands frames made on one goroutine to
// another that releases them, as a cross-shard link does, while both also
// recycle frames of their own. Run under -race, it checks the pool needs
// no synchronization from its users.
func TestFramePoolAcrossGoroutines(t *testing.T) {
	handoff := make(chan *Frame)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(handoff)
		for i := 0; i < 500; i++ {
			f := NewFrame([]byte{byte(i), 1, 2, 3})
			NewFrame(f.Data).Release()
			handoff <- f
		}
	}()
	go func() {
		defer wg.Done()
		i := 0
		for f := range handoff {
			if f.Data[0] != byte(i) || len(f.Data) != 4 {
				t.Errorf("frame %d arrived as %v", i, f.Data)
			}
			f.Release()
			NewFrame([]byte{9}).Release()
			i++
		}
	}()
	wg.Wait()
}

// TestFrameReuseCopies checks that a recycled frame's buffer is reused
// with exactly the new bytes, that NewFrame and Copy copy rather than
// alias, and that a frame parsed, released and reused for other bytes
// yields the new bytes' tuple, never the cached one.
func TestFrameReuseCopies(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6}
	f := NewFrame(src)
	src[0] = 9
	if f.Data[0] != 1 || len(f.Data) != 6 {
		t.Fatalf("NewFrame aliased its input: %v", f.Data)
	}
	c := f.Copy()
	c.Data[1] = 7
	if f.Data[1] != 2 {
		t.Fatal("a copy of a frame aliased the original")
	}
	f.Release()
	c.Release()
	g := NewFrame([]byte{4, 2})
	if string(g.Data) != string([]byte{4, 2}) {
		t.Fatalf("recycled frame holds %v", g.Data)
	}
	g.Release()

	// The pool hands back the frame just released (the race detector's
	// pool drops some, so repeat): its parsed tuple must not survive.
	corpus := fieldsCorpus()
	for i := 0; i < 16; i++ {
		prev, next := corpus[i%len(corpus)], corpus[(i+1)%len(corpus)]
		f := NewFrame(prev)
		f.Fields(1)
		f.Release()
		g := NewFrame(next)
		if got, want := g.Fields(2), openflow.ExtractFields(2, next); got != want {
			t.Fatalf("reused frame: tuple %+v, want %+v", got, want)
		}
		g.Release()
	}
}

// fieldsCorpus is a set of frames that exercise every layer ExtractFields
// reads, plus frames it rejects part-way.
func fieldsCorpus() [][]byte {
	a, b := packet.MustMAC("aa:aa:aa:aa:aa:01"), packet.MustMAC("bb:bb:bb:bb:bb:02")
	ipA, ipB := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2")
	u := &packet.UDP{SrcPort: 5000, DstPort: 9, Payload: []byte("flood")}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: ipA, Dst: ipB, Payload: u.Marshal()}
	udp := (&packet.Ethernet{Dst: b, Src: a, Type: packet.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	badSum := append([]byte(nil), udp...)
	badSum[len(badSum)-1] ^= 0xff // the UDP checksum fails: an L3-only tuple
	return [][]byte{
		udp,
		badSum,
		udp[:20], // truncated IPv4: an L2-only tuple
		packet.NewARPRequest(a, ipA, ipB).Marshal(),
		packet.NewICMPEcho(a, b, ipA, ipB, 3, 4, false).Marshal(),
		packet.NewTCPSegment(a, b, ipA, ipB, 40000, 443, packet.TCPSyn, 11, 0, nil).Marshal(),
		{1, 2, 3},
	}
}

// FuzzFrameFields: for any bytes, the tuple a pooled frame caches, and the
// tuple its copies carry, equal a fresh openflow.ExtractFields at two
// different in-ports, whether a copy is made before or after the
// original is parsed.
func FuzzFrameFields(f *testing.F) {
	for _, data := range fieldsCorpus() {
		f.Add(uint32(1), data)
	}
	f.Fuzz(func(t *testing.T, inPort uint32, data []byte) {
		check := func(what string, fr *Frame) {
			t.Helper()
			for _, p := range [2]uint32{inPort, inPort + 1} {
				if got, want := fr.Fields(p), openflow.ExtractFields(p, data); got != want {
					t.Fatalf("%s at port %d: tuple %+v, want %+v", what, p, got, want)
				}
			}
		}
		fr := NewFrame(data)
		early := fr.Copy()
		check("frame", fr)
		late := fr.Copy()
		check("copy of the parsed frame", late)
		check("copy made before the parse", early)
		for _, x := range []*Frame{fr, early, late} {
			x.Release()
		}
	})
}

func TestCarrierDownDropsFramesAtSend(t *testing.T) {
	k, ea, eb, _, rb := newPair(t, sim.Const(time.Millisecond))
	eb.SetCarrier(false)
	ea.Send(NewFrame([]byte{1}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 0 {
		t.Fatal("frame delivered to downed transceiver")
	}
}

func TestCarrierDownDropsInFlightFrames(t *testing.T) {
	k, ea, eb, _, rb := newPair(t, sim.Const(10*time.Millisecond))
	ea.Send(NewFrame([]byte{1}))
	k.Schedule(5*time.Millisecond, func() { eb.SetCarrier(false) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 0 {
		t.Fatal("in-flight frame survived carrier loss")
	}
}

func TestCarrierChangeNotifiesPeerImmediately(t *testing.T) {
	k, ea, _, _, rb := newPair(t, sim.Const(time.Millisecond))
	ea.SetCarrier(false)
	ea.SetCarrier(false) // duplicate: no extra notification
	ea.SetCarrier(true)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.carriers) != 2 || rb.carriers[0] != false || rb.carriers[1] != true {
		t.Fatalf("carrier notifications = %v", rb.carriers)
	}
}

func TestCarrierStateQueries(t *testing.T) {
	_, ea, eb, _, _ := newPair(t, nil)
	if !ea.CarrierUp() || !eb.CarrierUp() || !ea.PeerCarrierUp() {
		t.Fatal("links should start with carrier up")
	}
	ea.SetCarrier(false)
	if ea.CarrierUp() || eb.PeerCarrierUp() {
		t.Fatal("carrier state not propagated to queries")
	}
}

func TestSendWithNoPeerAttachment(t *testing.T) {
	k := sim.New()
	l := NewLink(k, nil)
	ra := &recorder{kernel: k}
	ea := NewEndpoint(l, EndA, ra)
	ea.Send(NewFrame([]byte{1})) // peer never attached: must not panic
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelRoundTrip(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(10*time.Millisecond))
	var got []byte
	var at time.Duration
	c.OnReceive(EndB, func(b []byte) { got = append([]byte(nil), b...); at = k.Elapsed() })
	c.Send(EndA, []byte("hello"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" || at != 10*time.Millisecond {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestChannelBothDirections(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(time.Millisecond))
	var gotA, gotB string
	c.OnReceive(EndA, func(b []byte) { gotA = string(b) })
	c.OnReceive(EndB, func(b []byte) { gotB = string(b) })
	c.Send(EndA, []byte("to-b"))
	c.Send(EndB, []byte("to-a"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotA != "to-a" || gotB != "to-b" {
		t.Fatalf("gotA=%q gotB=%q", gotA, gotB)
	}
}

func TestChannelSendAfter(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(10*time.Millisecond))
	var at time.Duration
	c.OnReceive(EndB, func([]byte) { at = k.Elapsed() })
	c.SendAfter(EndA, 5*time.Millisecond, []byte{1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15*time.Millisecond {
		t.Fatalf("arrival = %v, want 15ms", at)
	}
}

func TestChannelNoHandlerDrops(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, nil)
	c.Send(EndA, []byte{1}) // no handler registered: must not panic
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelCopiesPayload(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, nil)
	var got []byte
	c.OnReceive(EndB, func(b []byte) { got = append([]byte(nil), b...) })
	buf := []byte{7}
	c.Send(EndA, buf)
	buf[0] = 0
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatal("channel aliased sender buffer")
	}
}

// TestChannelHandlerReentrantSend: a handler that replies, and sends a
// second message onward in its own direction, still reads its own
// message intact afterwards, because its delivery is recycled only once
// it returns.
func TestChannelHandlerReentrantSend(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(time.Millisecond))
	c.Send(EndA, []byte("warm")) // leave one recycled delivery on the free list
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var gotA, gotB []string
	c.OnReceive(EndA, func(b []byte) { gotA = append(gotA, string(b)) })
	c.OnReceive(EndB, func(b []byte) {
		gotB = append(gotB, string(b))
		if string(b) != "request" {
			return
		}
		c.Send(EndB, []byte("reply!!"))
		c.Send(EndA, []byte("onward!"))
		if string(b) != "request" {
			t.Errorf("a send from the handler overwrote its message: %q", b)
		}
	})
	c.Send(EndA, []byte("request"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || gotA[0] != "reply!!" {
		t.Fatalf("end A got %q, want the reply", gotA)
	}
	if len(gotB) != 2 || gotB[0] != "request" || gotB[1] != "onward!" {
		t.Fatalf("end B got %q, want the request then the onward message", gotB)
	}
}

// TestChannelReusesDeliveryBuffer: consecutive messages through one
// recycled delivery each arrive at their own length — a longer one grows
// the buffer, and a shorter one after it carries no stale tail.
func TestChannelReusesDeliveryBuffer(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(time.Millisecond))
	var got []string
	c.OnReceive(EndB, func(b []byte) { got = append(got, string(b)) })
	want := []string{"abc", "a much longer second message", "xy"}
	for i, msg := range want {
		if i%2 == 0 {
			c.Send(EndA, []byte(msg))
		} else {
			c.SendAfter(EndA, time.Millisecond, []byte(msg))
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(c.free) != 1 {
			t.Fatalf("after message %d: %d recycled deliveries, want 1", i, len(c.free))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLinkLatencyJitterSampledPerFrame(t *testing.T) {
	k, ea, _, _, rb := newPair(t, sim.Uniform{Lo: time.Millisecond, Hi: 10 * time.Millisecond})
	for i := 0; i < 20; i++ {
		ea.Send(NewFrame([]byte{byte(i)}))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 20 {
		t.Fatalf("frames = %d", len(rb.frames))
	}
	distinct := map[time.Duration]bool{}
	for _, at := range rb.times {
		distinct[at] = true
		if at < time.Millisecond || at > 10*time.Millisecond {
			t.Fatalf("arrival %v outside latency bounds", at)
		}
	}
	if len(distinct) < 2 {
		t.Fatal("jittered link produced identical delays")
	}
}

// benchChannel measures send plus its delivery of a 64-byte message on a
// warm unsplit channel. The copy lands in a recycled delivery's buffer,
// so CI requires 0 allocs/op.
func benchChannel(b *testing.B, send func(c *Channel, msg []byte)) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	c := NewChannel(k, sim.Const(time.Microsecond))
	delivered := 0
	c.OnReceive(EndB, func([]byte) { delivered++ })
	msg := make([]byte, 64)
	round := func() {
		send(c, msg)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	round() // warm the delivery free list and the event queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d of %d messages", delivered, b.N+1)
	}
}

func BenchmarkChannelSend(b *testing.B) {
	benchChannel(b, func(c *Channel, msg []byte) { c.Send(EndA, msg) })
}

func BenchmarkChannelSendAfter(b *testing.B) {
	benchChannel(b, func(c *Channel, msg []byte) { c.SendAfter(EndA, time.Microsecond, msg) })
}
