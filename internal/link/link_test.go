package link

import (
	"testing"
	"time"

	"sdntamper/internal/sim"
)

// recorder is a test Attachment that logs frames and carrier changes with
// their arrival times.
type recorder struct {
	kernel   *sim.Kernel
	frames   [][]byte
	times    []time.Duration
	carriers []bool
}

func (r *recorder) ReceiveFrame(data []byte) {
	r.frames = append(r.frames, data)
	r.times = append(r.times, r.kernel.Elapsed())
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
	ea.Send([]byte{1, 2, 3})
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
	ea.Send([]byte{1})
	eb.Send([]byte{2})
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

// TestLinkSendTakesOwnership pins the wire-frame contract: the link hands
// the peer the very slice it was sent, with no per-hop copy. The one copy
// a frame gets is made by the host that builds it (see
// dataplane.TestHostSendRawCopiesScratch).
func TestLinkSendTakesOwnership(t *testing.T) {
	k, ea, _, _, rb := newPair(t, sim.Const(0))
	buf := []byte{9, 8, 7}
	ea.Send(buf)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(rb.frames))
	}
	if got := rb.frames[0]; len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatal("link copied the frame instead of delivering the sent backing array")
	}
}

func TestCarrierDownDropsFramesAtSend(t *testing.T) {
	k, ea, eb, _, rb := newPair(t, sim.Const(time.Millisecond))
	eb.SetCarrier(false)
	ea.Send([]byte{1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 0 {
		t.Fatal("frame delivered to downed transceiver")
	}
}

func TestCarrierDownDropsInFlightFrames(t *testing.T) {
	k, ea, eb, _, rb := newPair(t, sim.Const(10*time.Millisecond))
	ea.Send([]byte{1})
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
	ea.Send([]byte{1}) // peer never attached: must not panic
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelRoundTrip(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(10*time.Millisecond))
	var got []byte
	var at time.Duration
	c.OnReceive(EndB, func(b []byte) { got = b; at = k.Elapsed() })
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
	c.OnReceive(EndB, func(b []byte) { got = b })
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

func TestLinkLatencyJitterSampledPerFrame(t *testing.T) {
	k, ea, _, _, rb := newPair(t, sim.Uniform{Lo: time.Millisecond, Hi: 10 * time.Millisecond})
	for i := 0; i < 20; i++ {
		ea.Send([]byte{byte(i)})
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
