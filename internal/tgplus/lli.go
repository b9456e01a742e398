package tgplus

import (
	"fmt"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/sim"
	"sdntamper/internal/stats"
)

// MetricLLILinkLatency is the histogram of every switch-link latency the
// LLI infers from an LLDP round trip (after subtracting control-link
// delays), flagged or not — the raw material of Figures 10 and 11.
const MetricLLILinkLatency = "lli_link_latency_seconds"

// controlEstimate tracks a switch's control-link latency as the average of
// the latest three probe RTTs, halved to a one-way figure (Section VI-D).
type controlEstimate struct {
	window *stats.Window
}

func (e *controlEstimate) oneWay() (time.Duration, bool) {
	if e == nil || e.window.N() == 0 {
		return 0, false
	}
	return e.window.Series().Mean() / 2, true
}

// LLI is the Link Latency Inspector.
type LLI struct {
	api      controller.API
	cfg      LLIConfig
	verdicts *obs.Verdicts
	linkLat  *obs.Histogram

	control  map[uint64]*controlEstimate
	traceSeq uint64
	// window is the fixed-size store of verified switch-link latencies.
	// It is global across links (as in the paper's design): a freshly
	// fabricated link is judged against the latency history of the real
	// links, not against its own attack-supplied measurements.
	window  *stats.Window
	samples []LatencySample
	// passed holds every link the LLI has passed, mapped to whether its
	// latest refresh was already approved over the fence.
	passed map[controller.Link]bool

	probeEvent sim.Event
	started    bool
}

// NewLLI creates a Link Latency Inspector. Call Start after registration
// to begin control-link probing.
func NewLLI(cfg LLIConfig) *LLI {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 100
	}
	if cfg.IQRMultiplier <= 0 {
		cfg.IQRMultiplier = 3
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 10
	}
	if cfg.ControlSamples <= 0 {
		cfg.ControlSamples = 3
	}
	if cfg.ControlProbeInterval <= 0 {
		cfg.ControlProbeInterval = 2 * time.Second
	}
	if cfg.ControlProbeTimeout <= 0 {
		cfg.ControlProbeTimeout = 2 * time.Second
	}
	return &LLI{
		cfg:     cfg,
		control: make(map[uint64]*controlEstimate),
		window:  stats.NewWindow(cfg.WindowSize),
		passed:  make(map[controller.Link]bool),
	}
}

var (
	_ controller.SecurityModule = (*LLI)(nil)
	_ controller.Binder         = (*LLI)(nil)
	_ controller.LinkApprover   = (*LLI)(nil)
	_ controller.SwitchObserver = (*LLI)(nil)
)

// ModuleName implements controller.SecurityModule.
func (l *LLI) ModuleName() string { return lliName }

// Bind implements controller.Binder.
func (l *LLI) Bind(api controller.API) {
	l.api = api
	l.verdicts = obs.NewVerdicts(api.Metrics(), lliName)
	l.linkLat = api.Metrics().HistogramWithBuckets(MetricLLILinkLatency, obs.DefaultLatencyBuckets())
}

// Start begins periodic control-link RTT probing of every connected
// switch. Stop halts it.
func (l *LLI) Start() {
	if l.started || l.api == nil {
		return
	}
	l.started = true
	l.probeAllControls()
	l.scheduleNextProbe()
}

// Stop halts control-link probing.
func (l *LLI) Stop() {
	l.started = false
	l.probeEvent.Cancel()
}

func (l *LLI) scheduleNextProbe() {
	l.probeEvent = l.api.Schedule(l.cfg.ControlProbeInterval, func() {
		if !l.started {
			return
		}
		l.probeAllControls()
		l.scheduleNextProbe()
	})
}

func (l *LLI) probeAllControls() {
	for _, dpid := range l.api.Switches() {
		dpid := dpid
		l.api.MeasureControlRTT(dpid, l.cfg.ControlProbeTimeout, func(rtt time.Duration, ok bool) {
			if !ok {
				return
			}
			est := l.control[dpid]
			if est == nil {
				// Average of the latest N (default three, Section VI-D).
				est = &controlEstimate{window: stats.NewWindow(l.cfg.ControlSamples)}
				l.control[dpid] = est
			}
			est.window.Add(rtt)
		})
	}
}

// ObserveSwitchDisconnect implements controller.SwitchObserver: a
// disconnect invalidates the switch's control-link estimate. RTTs sampled
// over the old connection say nothing about the channel the switch comes
// back on, and a stale estimate would skew every link-latency inference
// touching this switch until three fresh probes overwrite the window.
func (l *LLI) ObserveSwitchDisconnect(dpid uint64) {
	delete(l.control, dpid)
}

// ObserveSwitchConnect implements controller.SwitchObserver: estimates are
// also discarded at (re)connect, covering reconnections the module never
// saw disconnect (e.g. the LLI registered between the two transitions).
func (l *LLI) ObserveSwitchConnect(dpid uint64) {
	delete(l.control, dpid)
}

// ControlLatency reports the current one-way control-link estimate for a
// switch, and whether any measurement exists yet.
func (l *LLI) ControlLatency(dpid uint64) (time.Duration, bool) {
	return l.control[dpid].oneWay()
}

// ApproveLink measures the link latency carried by this LLDP round trip
// and flags it against the IQR threshold of the verified history.
//
// Two rules keep the fence honest on a quiet fabric:
//   - A round trip whose src or dst switch has no control estimate yet
//     (before the first probe tick, or after a reconnect or mastership
//     handover) still contains unknown control delay. It is recorded
//     unenforced and kept out of the window.
//   - A link the LLI has passed before is vetoed only on its second
//     consecutive over-fence refresh. The first one is approved silently
//     and kept out of the window, so a single benign micro-burst neither
//     alerts nor costs the link a refresh. A link never passed before is
//     still judged on its first probe.
func (l *LLI) ApproveLink(ev *controller.LinkEvent) bool {
	total := ev.ReceivedAt.Sub(ev.SentAt)
	srcCtl, okSrc := l.control[ev.Link.Src.DPID].oneWay()
	dstCtl, okDst := l.control[ev.Link.Dst.DPID].oneWay()
	latency := total - srcCtl - dstCtl
	if latency < 0 {
		latency = 0
	}
	l.linkLat.Observe(latency)
	sample := LatencySample{At: ev.ReceivedAt, Link: ev.Link, Latency: latency}

	if !okSrc || !okDst {
		l.pass(sample, false)
		return true
	}

	w := l.window
	enforce := w.N() >= l.cfg.MinSamples
	if tr := l.api.Metrics().Tracer(); tr != nil {
		// One scoring span per measurement: the inferred link latency
		// after control-delay subtraction, and the threshold it was (or
		// was not yet) judged against.
		l.traceSeq++
		now := tr.Now()
		detail := fmt.Sprintf("latency=%v", latency)
		if enforce {
			detail = fmt.Sprintf("latency=%v threshold=%v", latency, w.IQRThreshold(l.cfg.IQRMultiplier))
		}
		tr.Emit(trace.Span{
			ID:     trace.MixID(uint64(trace.KindDefense), lliSpanTag, l.traceSeq),
			Parent: tr.Current(),
			Start:  now, End: now,
			Kind: trace.KindDefense, Name: "lli.score",
			Entity: ev.Link.Src.DPID, Port: ev.Link.Src.Port,
			Detail: detail,
		})
	}
	if enforce {
		sample.Threshold = w.IQRThreshold(l.cfg.IQRMultiplier)
		if latency > sample.Threshold {
			if overFence, passed := l.passed[ev.Link]; passed && !overFence {
				l.passed[ev.Link] = true
				l.samples = append(l.samples, sample)
				l.verdicts.Pass()
				return true
			}
			sample.Flagged = true
			l.samples = append(l.samples, sample)
			if l.cfg.BlockAnomalies {
				l.verdicts.Block(ReasonAbnormalDelay)
			} else {
				l.verdicts.Flag(ReasonAbnormalDelay)
			}
			l.api.RaiseAlert(lliName, ReasonAbnormalDelay,
				fmt.Sprintf("link %s delay is abnormal. delay:%dms, threshold:%dms",
					ev.Link, latency.Milliseconds(), sample.Threshold.Milliseconds()))
			return !l.cfg.BlockAnomalies
		}
	}
	l.pass(sample, true)
	return true
}

// pass records an approved measurement and marks its link as passed.
// Only verified measurements enter the window, so a slow trickle of
// attack latencies cannot drag the threshold upward.
func (l *LLI) pass(sample LatencySample, verified bool) {
	if verified {
		l.window.Add(sample.Latency)
	}
	l.passed[sample.Link] = false
	l.samples = append(l.samples, sample)
	l.verdicts.Pass()
}

// Samples returns every latency measurement recorded so far, in order.
func (l *LLI) Samples() []LatencySample {
	out := make([]LatencySample, len(l.samples))
	copy(out, l.samples)
	return out
}

// SamplesForLink filters measurements for one directed link.
func (l *LLI) SamplesForLink(link controller.Link) []LatencySample {
	var out []LatencySample
	for _, s := range l.samples {
		if s.Link == link {
			out = append(out, s)
		}
	}
	return out
}
