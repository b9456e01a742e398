package core

import (
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/lldp"
	"sdntamper/internal/probe"
	"sdntamper/internal/sim"
	"sdntamper/internal/stats"
)

// TableIRow is one row of Table I (liveness probe options).
type TableIRow struct {
	Probe        string
	Stealth      string
	Requirements string
	Mean         time.Duration
	Std          time.Duration
}

// RunTableI regenerates Table I: per probe type, the stealth level, the
// prerequisites, and the mean and standard deviation of per-scan tool
// time over the given number of scans (the paper used 1000), excluding
// round-trip time exactly as the paper's Timing column does.
func RunTableI(seed int64, scans int) []TableIRow {
	if scans <= 0 {
		scans = 1000
	}
	k := sim.New(sim.WithSeed(seed))
	rows := make([]TableIRow, 0, 4)
	for _, spec := range probe.Specs() {
		var series stats.DurationSeries
		for i := 0; i < scans; i++ {
			series.Add(spec.Overhead.Sample(k.Rand()))
		}
		rows = append(rows, TableIRow{
			Probe:        spec.Type.String(),
			Stealth:      spec.Stealth,
			Requirements: spec.Requirements,
			Mean:         series.Mean(),
			Std:          series.Std(),
		})
	}
	return rows
}

// TableIIRow is one row of Table II (TopoGuard+ overhead).
type TableIIRow struct {
	Function string
	// Baseline is the per-call cost without TopoGuard+.
	Baseline time.Duration
	// WithTGPlus is the per-call cost with TopoGuard+ extensions.
	WithTGPlus time.Duration
	// Overhead is the difference attributable to TopoGuard+.
	Overhead time.Duration
}

// RunTableII regenerates Table II by measuring, in real time on this
// machine, the extra cost TopoGuard+ adds to LLDP construction (the
// encrypted timestamp TLV plus signature) and to LLDP processing (parse,
// verify, timestamp decryption and latency inspection). Absolute values
// are hardware-dependent; the paper's point — sub-millisecond overhead,
// none of it on the dataplane — is what reproduces.
func RunTableII(iters int) ([]TableIIRow, error) {
	if iters <= 0 {
		iters = 10000
	}
	// The keys a TOPOGUARD+ controller holds, through a signer of its
	// own: the controller's path, with warm hash state and scratch.
	opts, err := TopoGuardPlus().ControllerOptions("bench-secret")
	if err != nil {
		return nil, err
	}
	sg := controller.New(sim.New(), opts...).Keychain().NewSigner()

	// Construction: plain LLDP vs timestamped+signed LLDP.
	now := time.Unix(1700000000, 0)
	plainConstruct := timePerOp(iters, func() {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		_ = f.Marshal()
	})
	tgConstruct := timePerOp(iters, func() {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		f.Timestamp = sg.SealTimestamp(now)
		sg.Sign(f)
		_ = f.Marshal()
	})

	// Processing: parse-only vs parse+verify+decrypt+threshold check.
	plainFrame := (&lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}).Marshal()
	rich := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	rich.Timestamp = sg.SealTimestamp(now)
	sg.Sign(rich)
	richFrame := rich.Marshal()

	window := stats.NewWindow(100)
	for i := 0; i < 100; i++ {
		window.Add(5 * time.Millisecond)
	}

	plainProcess := timePerOp(iters, func() {
		_, _ = lldp.Unmarshal(plainFrame)
	})
	tgProcess := timePerOp(iters, func() {
		f, err := lldp.Unmarshal(richFrame)
		if err != nil {
			return
		}
		if err := sg.Verify(f); err != nil {
			return
		}
		sent, err := sg.OpenTimestamp(f.Timestamp)
		if err != nil {
			return
		}
		latency := now.Add(7 * time.Millisecond).Sub(sent)
		_ = latency > window.IQRThreshold(3)
	})

	return []TableIIRow{
		{Function: "LLDP Construction", Baseline: plainConstruct, WithTGPlus: tgConstruct, Overhead: maxDuration(0, tgConstruct-plainConstruct)},
		{Function: "LLDP Processing", Baseline: plainProcess, WithTGPlus: tgProcess, Overhead: maxDuration(0, tgProcess-plainProcess)},
	}, nil
}

func timePerOp(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// TableIIIRow is one row of Table III (controller timing profiles).
type TableIIIRow struct {
	Controller        string
	DiscoveryInterval time.Duration
	LinkTimeout       time.Duration
	// TimeoutFactor is LinkTimeout / DiscoveryInterval, the 2-3x margin
	// Section VIII-A leans on to tolerate isolated false positives.
	TimeoutFactor float64
}

// RunTableIII regenerates Table III from the controller profiles.
func RunTableIII() []TableIIIRow {
	rows := make([]TableIIIRow, 0, 3)
	for _, p := range controller.Profiles() {
		rows = append(rows, TableIIIRow{
			Controller:        p.Name,
			DiscoveryInterval: p.DiscoveryInterval,
			LinkTimeout:       p.LinkTimeout,
			TimeoutFactor:     float64(p.LinkTimeout) / float64(p.DiscoveryInterval),
		})
	}
	return rows
}
