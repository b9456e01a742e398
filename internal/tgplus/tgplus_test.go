package tgplus_test

import (
	"strings"
	"testing"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/controllertest"
	"sdntamper/internal/openflow"
	"sdntamper/internal/tgplus"
)

var (
	portA = controller.PortRef{DPID: 1, Port: 1}
	portB = controller.PortRef{DPID: 2, Port: 1}
)

func portStatus(api *controllertest.FakeAPI, loc controller.PortRef, up bool) *controller.PortStatusEvent {
	return &controller.PortStatusEvent{
		DPID: loc.DPID,
		Status: &openflow.PortStatus{
			Reason: openflow.PortReasonModify,
			Desc:   openflow.PortDesc{No: loc.Port, Up: up},
		},
		When: api.Now(),
	}
}

func linkEvent(api *controllertest.FakeAPI, sentAgo time.Duration) *controller.LinkEvent {
	now := api.Now()
	return &controller.LinkEvent{
		Link:       controller.Link{Src: portA, Dst: portB},
		SentAt:     now.Add(-sentAgo),
		ReceivedAt: now,
		IsNew:      true,
	}
}

func TestCMMApprovesQuietPropagation(t *testing.T) {
	api := controllertest.New()
	cmm := tgplus.NewCMM(0)
	cmm.Bind(api)
	if !cmm.ApproveLink(linkEvent(api, 20*time.Millisecond)) {
		t.Fatal("quiet propagation blocked")
	}
	if len(api.AlertsRaised) != 0 {
		t.Fatal("alert without port events")
	}
}

func TestCMMBlocksPortEventInWindow(t *testing.T) {
	api := controllertest.New()
	cmm := tgplus.NewCMM(0)
	cmm.Bind(api)
	api.Kernel.RunFor(time.Second)
	cmm.ObservePortStatus(portStatus(api, portB, false)) // amnesia reset mid-flight
	api.Kernel.RunFor(30 * time.Millisecond)
	ev := linkEvent(api, 100*time.Millisecond) // sent 100ms ago: event inside window
	if cmm.ApproveLink(ev) {
		t.Fatal("Port-Down inside propagation window approved")
	}
	if api.AlertCount(tgplus.ReasonControlMessage) != 1 {
		t.Fatal("no CMM alert")
	}
	if !strings.Contains(api.AlertsRaised[0].Detail, "Port-Down") {
		t.Fatalf("detail = %q", api.AlertsRaised[0].Detail)
	}
}

func TestCMMChecksSenderAndReceiverPorts(t *testing.T) {
	for _, loc := range []controller.PortRef{portA, portB} {
		api := controllertest.New()
		cmm := tgplus.NewCMM(0)
		cmm.Bind(api)
		api.Kernel.RunFor(time.Second)
		cmm.ObservePortStatus(portStatus(api, loc, true)) // Port-Up counts too
		api.Kernel.RunFor(10 * time.Millisecond)
		if cmm.ApproveLink(linkEvent(api, 50*time.Millisecond)) {
			t.Fatalf("port event at %v ignored", loc)
		}
	}
}

func TestCMMIgnoresUnrelatedPorts(t *testing.T) {
	api := controllertest.New()
	cmm := tgplus.NewCMM(0)
	cmm.Bind(api)
	api.Kernel.RunFor(time.Second)
	cmm.ObservePortStatus(portStatus(api, controller.PortRef{DPID: 7, Port: 7}, false))
	api.Kernel.RunFor(10 * time.Millisecond)
	if !cmm.ApproveLink(linkEvent(api, 50*time.Millisecond)) {
		t.Fatal("unrelated port event blocked the link")
	}
}

func TestCMMIgnoresEventsOutsideWindow(t *testing.T) {
	api := controllertest.New()
	cmm := tgplus.NewCMM(0)
	cmm.Bind(api)
	// Event strictly before the send: the OOB attacker's one-time reset.
	cmm.ObservePortStatus(portStatus(api, portB, false))
	api.Kernel.RunFor(time.Second)
	if !cmm.ApproveLink(linkEvent(api, 50*time.Millisecond)) {
		t.Fatal("pre-send port event blocked the link")
	}
	// Event exactly at SentAt is also outside (the controller emits fresh
	// probes in the same instant it processes Port-Up).
	api2 := controllertest.New()
	cmm2 := tgplus.NewCMM(0)
	cmm2.Bind(api2)
	api2.Kernel.RunFor(time.Second)
	cmm2.ObservePortStatus(portStatus(api2, portA, true))
	ev := linkEvent(api2, 0)
	ev.SentAt = api2.Now()
	ev.ReceivedAt = api2.Now().Add(30 * time.Millisecond)
	if !cmm2.ApproveLink(ev) {
		t.Fatal("same-instant Port-Up/send self-flagged")
	}
}

func TestCMMLogRetention(t *testing.T) {
	api := controllertest.New()
	cmm := tgplus.NewCMM(5 * time.Second)
	cmm.Bind(api)
	cmm.ObservePortStatus(portStatus(api, portB, false))
	api.Kernel.RunFor(10 * time.Second)
	cmm.ObservePortStatus(portStatus(api, controller.PortRef{DPID: 9, Port: 9}, false)) // triggers trim
	ev := linkEvent(api, 11*time.Second)                                                // window covers the old event...
	if !cmm.ApproveLink(ev) {
		t.Fatal("event older than retention still consulted")
	}
}

func TestLLIControlEstimateAveragesLatestThree(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	api.SwitchIDs = []uint64{1}
	api.ControlRTTs[1] = 4 * time.Millisecond
	lli.Start()
	defer lli.Stop()
	if err := api.Kernel.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	oneWay, ok := lli.ControlLatency(1)
	if !ok {
		t.Fatal("no control estimate")
	}
	if oneWay != 2*time.Millisecond {
		t.Fatalf("one-way estimate = %v, want 2ms (half of 4ms RTT)", oneWay)
	}
}

// controlRTT is every fake switch's control-link RTT: an LLDP round
// trip carries half of it at each end.
const controlRTT = 4 * time.Millisecond

var (
	historyLink = controller.Link{Src: portA, Dst: portB}
	// relayLink is a link the LLI has never passed, as the OOB relay's
	// fabricated link always is.
	relayLink = controller.Link{Src: controller.PortRef{DPID: 3, Port: 1}, Dst: portB}
)

// startLLI binds a started LLI to a fake API whose switches 1-3 answer
// control probes in controlRTT, and runs the kernel past the first
// probe so every switch has a control estimate.
func startLLI(t *testing.T, cfg tgplus.LLIConfig) (*controllertest.FakeAPI, *tgplus.LLI) {
	t.Helper()
	api := controllertest.New()
	lli := tgplus.NewLLI(cfg)
	lli.Bind(api)
	api.SwitchIDs = []uint64{1, 2, 3}
	for _, dpid := range api.SwitchIDs {
		api.ControlRTTs[dpid] = controlRTT
	}
	lli.Start()
	t.Cleanup(lli.Stop)
	if err := api.Kernel.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	return api, lli
}

// probeLLI hands the LLI one round trip on link whose inferred link
// latency, after control-delay subtraction, is latency.
func probeLLI(api *controllertest.FakeAPI, lli *tgplus.LLI, link controller.Link, latency time.Duration) bool {
	return lli.ApproveLink(&controller.LinkEvent{
		Link:       link,
		SentAt:     api.Now().Add(-latency - controlRTT),
		ReceivedAt: api.Now(),
	})
}

// feedLLI sends n round trips of the given latency on historyLink, one
// a second.
func feedLLI(api *controllertest.FakeAPI, lli *tgplus.LLI, latency time.Duration, n int) {
	for i := 0; i < n; i++ {
		api.Kernel.RunFor(time.Second)
		probeLLI(api, lli, historyLink, latency)
	}
}

func TestLLIEnforcesAfterMinSamples(t *testing.T) {
	cfg := tgplus.DefaultLLIConfig()
	cfg.MinSamples = 10
	api, lli := startLLI(t, cfg)
	feedLLI(api, lli, 5*time.Millisecond, 9)
	// Ninth sample: still calibrating, even an outlier passes.
	if !probeLLI(api, lli, relayLink, 40*time.Millisecond) {
		t.Fatal("blocked during calibration")
	}
}

func TestLLIFlagsOutlierAndBlocks(t *testing.T) {
	api, lli := startLLI(t, tgplus.DefaultLLIConfig())
	feedLLI(api, lli, 5*time.Millisecond, 20)
	if probeLLI(api, lli, relayLink, 22*time.Millisecond) { // the OOB relay path
		t.Fatal("22ms outlier approved against ~5ms history")
	}
	if api.AlertCount(tgplus.ReasonAbnormalDelay) != 1 {
		t.Fatal("no LLI alert")
	}
	if !strings.Contains(api.AlertsRaised[0].Detail, "delay is abnormal") {
		t.Fatalf("detail = %q (want the Figure 13 log shape)", api.AlertsRaised[0].Detail)
	}
}

func TestLLIFlaggedSamplesStayOutOfStore(t *testing.T) {
	api, lli := startLLI(t, tgplus.DefaultLLIConfig())
	feedLLI(api, lli, 5*time.Millisecond, 20)
	// A persistent attacker repeats the 22ms link every round; the
	// threshold must not creep upward.
	for i := 0; i < 30; i++ {
		api.Kernel.RunFor(time.Second)
		if probeLLI(api, lli, relayLink, 22*time.Millisecond) {
			t.Fatalf("attack latency accepted on round %d: threshold crept", i)
		}
	}
	if got := api.AlertCount(tgplus.ReasonAbnormalDelay); got != 30 {
		t.Fatalf("alerts = %d, want 30", got)
	}
}

func TestLLIBootstrapSamplesStayOutOfWindow(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	// Before the first control probe, round trips carry unknown control
	// delay: they are recorded unenforced, even far above any fence.
	for i := 0; i < 20; i++ {
		api.Kernel.RunFor(10 * time.Millisecond)
		if !probeLLI(api, lli, historyLink, 30*time.Millisecond) {
			t.Fatalf("bootstrap round trip %d judged", i)
		}
	}
	for _, s := range lli.Samples() {
		if s.Flagged || s.Threshold != 0 {
			t.Fatalf("bootstrap sample judged: %+v", s)
		}
	}
	api.SwitchIDs = []uint64{1, 2, 3}
	for _, dpid := range api.SwitchIDs {
		api.ControlRTTs[dpid] = controlRTT
	}
	lli.Start()
	defer lli.Stop()
	feedLLI(api, lli, 5*time.Millisecond, 10)
	// Had the 30ms bootstrap samples entered the window, the fence would
	// sit far above 22ms.
	if probeLLI(api, lli, relayLink, 22*time.Millisecond) {
		t.Fatal("bootstrap samples inflated the fence")
	}
}

func TestLLIVerifiedLinkSurvivesOneOverFenceRefresh(t *testing.T) {
	api, lli := startLLI(t, tgplus.DefaultLLIConfig())
	feedLLI(api, lli, 5*time.Millisecond, 20)
	// A benign micro-burst on a verified link: approved, no alert.
	if !probeLLI(api, lli, historyLink, 12*time.Millisecond) {
		t.Fatal("first over-fence refresh of a verified link vetoed")
	}
	if got := api.AlertCount(tgplus.ReasonAbnormalDelay); got != 0 {
		t.Fatalf("alerts = %d after one burst, want 0", got)
	}
	last := lli.Samples()[len(lli.Samples())-1]
	if last.Flagged || last.Threshold == 0 {
		t.Fatalf("forgiven sample = %+v, want judged and unflagged", last)
	}
	// An on-fence refresh resets the count...
	feedLLI(api, lli, 5*time.Millisecond, 1)
	if !probeLLI(api, lli, historyLink, 12*time.Millisecond) {
		t.Fatal("burst after a passing refresh vetoed")
	}
	// ...but a second consecutive over-fence refresh is vetoed and alerted.
	if probeLLI(api, lli, historyLink, 12*time.Millisecond) {
		t.Fatal("second consecutive over-fence refresh approved")
	}
	if got := api.AlertCount(tgplus.ReasonAbnormalDelay); got != 1 {
		t.Fatalf("alerts = %d, want 1", got)
	}
	// The forgiven bursts stayed out of the window: the fence still
	// blocks a new link at the burst latency.
	if probeLLI(api, lli, relayLink, 12*time.Millisecond) {
		t.Fatal("forgiven bursts dragged the fence upward")
	}
}

func TestLLIUnenforcedLinkCountsAsPassed(t *testing.T) {
	api, lli := startLLI(t, tgplus.DefaultLLIConfig())
	feedLLI(api, lli, 5*time.Millisecond, 20)
	// Switch 3 reconnects: its estimate is gone, so the relay link's
	// next round trip is recorded unenforced.
	lli.ObserveSwitchConnect(3)
	if !probeLLI(api, lli, relayLink, 22*time.Millisecond) {
		t.Fatal("round trip without a control estimate judged")
	}
	if err := api.Kernel.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !probeLLI(api, lli, relayLink, 22*time.Millisecond) {
		t.Fatal("first over-fence refresh of an unenforced link vetoed")
	}
	if probeLLI(api, lli, relayLink, 22*time.Millisecond) {
		t.Fatal("second consecutive over-fence refresh approved")
	}
}

func TestLLISubtractsControlLatency(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	api.SwitchIDs = []uint64{1, 2}
	api.ControlRTTs[1] = 4 * time.Millisecond
	api.ControlRTTs[2] = 4 * time.Millisecond
	lli.Start()
	defer lli.Stop()
	if err := api.Kernel.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Total propagation 9ms = 2ms control + 5ms link + 2ms control.
	ev := &controller.LinkEvent{
		Link:       controller.Link{Src: portA, Dst: portB},
		SentAt:     api.Now().Add(-9 * time.Millisecond),
		ReceivedAt: api.Now(),
	}
	lli.ApproveLink(ev)
	samples := lli.Samples()
	if len(samples) != 1 {
		t.Fatalf("samples = %d", len(samples))
	}
	if got := samples[0].Latency; got != 5*time.Millisecond {
		t.Fatalf("inferred link latency = %v, want 5ms", got)
	}
}

func TestLLINegativeLatencyClamped(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	api.SwitchIDs = []uint64{1, 2}
	api.ControlRTTs[1] = 40 * time.Millisecond
	api.ControlRTTs[2] = 40 * time.Millisecond
	lli.Start()
	defer lli.Stop()
	if err := api.Kernel.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := &controller.LinkEvent{
		Link:       controller.Link{Src: portA, Dst: portB},
		SentAt:     api.Now().Add(-10 * time.Millisecond),
		ReceivedAt: api.Now(),
	}
	lli.ApproveLink(ev)
	if got := lli.Samples()[0].Latency; got != 0 {
		t.Fatalf("latency = %v, want clamp to 0", got)
	}
}

func TestLLINonBlockingMode(t *testing.T) {
	cfg := tgplus.DefaultLLIConfig()
	cfg.BlockAnomalies = false
	api, lli := startLLI(t, cfg)
	feedLLI(api, lli, 5*time.Millisecond, 20)
	if !probeLLI(api, lli, relayLink, 22*time.Millisecond) {
		t.Fatal("non-blocking mode still blocked")
	}
	if api.AlertCount(tgplus.ReasonAbnormalDelay) != 1 {
		t.Fatal("non-blocking mode must still alert")
	}
}

func TestSamplesForLinkFilters(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	feedLLI(api, lli, 5*time.Millisecond, 5)
	other := controller.Link{Src: controller.PortRef{DPID: 3, Port: 3}, Dst: portB}
	lli.ApproveLink(&controller.LinkEvent{Link: other, SentAt: api.Now().Add(-5 * time.Millisecond), ReceivedAt: api.Now()})
	if got := len(lli.SamplesForLink(controller.Link{Src: portA, Dst: portB})); got != 5 {
		t.Fatalf("filtered samples = %d", got)
	}
	if got := len(lli.SamplesForLink(other)); got != 1 {
		t.Fatalf("other link samples = %d", got)
	}
}

func TestModuleNames(t *testing.T) {
	if tgplus.NewCMM(0).ModuleName() != "TopoGuard+/CMM" {
		t.Fatal("CMM name")
	}
	if tgplus.NewLLI(tgplus.DefaultLLIConfig()).ModuleName() != "TopoGuard+/LLI" {
		t.Fatal("LLI name")
	}
}

func TestLLIEvictsControlEstimateOnDisconnect(t *testing.T) {
	api := controllertest.New()
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(api)
	api.SwitchIDs = []uint64{1}
	api.ControlRTTs[1] = 4 * time.Millisecond
	lli.Start()
	defer lli.Stop()
	if err := api.Kernel.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := lli.ControlLatency(1); !ok {
		t.Fatal("no control estimate before disconnect")
	}
	lli.ObserveSwitchDisconnect(1)
	if _, ok := lli.ControlLatency(1); ok {
		t.Fatal("control estimate survived the switch disconnect")
	}
	// Probing continues and rebuilds the estimate; a reconnect then
	// invalidates it again (the channel may have changed underneath).
	if err := api.Kernel.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := lli.ControlLatency(1); !ok {
		t.Fatal("estimate not rebuilt after probing resumed")
	}
	lli.ObserveSwitchConnect(1)
	if _, ok := lli.ControlLatency(1); ok {
		t.Fatal("control estimate survived the switch reconnect")
	}
}
