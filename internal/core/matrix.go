package core

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/packet"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/sphinx"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// Verdict summarizes one attack-versus-defense cell.
type Verdict string

// Verdicts.
const (
	// Undetected: the attack achieved its goal and no relevant alert fired.
	Undetected Verdict = "undetected"
	// Detected: an alert fired (the attack may or may not have been blocked).
	Detected Verdict = "detected"
	// Blocked: an alert fired and the tampering was kept out of controller state.
	Blocked Verdict = "blocked"
	// Failed: the attack did not achieve its goal for another reason.
	Failed Verdict = "failed"
)

// MatrixRow is one attack evaluated against the four defense stacks.
type MatrixRow struct {
	Attack      string
	VsTopoGuard Verdict
	VsSphinx    Verdict
	VsTGPlus    Verdict
	VsFullStack Verdict
}

// matrixColumn is one defense configuration every row of a matrix runs
// under.
type matrixColumn struct {
	def Defenses
	// ctlOpts configures the single controller, e.g. its discovery
	// protocol.
	ctlOpts []controller.Option
	// cluster, when set, runs the row on the clustered Figure 9 testbed.
	cluster *clusterView
	// seedOffset is added to the row's seed.
	seedOffset int64
}

// matrixCell runs one attack under one column in a fresh scenario.
type matrixCell func(col matrixColumn, seed int64) (cellResult, error)

// matrixRow is one attack.
type matrixRow struct {
	name string
	run  matrixCell
}

// cellResult is one cell's outcome. Only clustered cells fill in the
// fields after verdict.
type cellResult struct {
	verdict    Verdict
	fabricated bool
	detectedBy []string
	prom       string // merged metrics snapshot
}

// runMatrix is the one matrix runner. It runs every row under every
// column as one exp.Grid over the cells; the cell in row i runs at seed
// seed + 101·i + the column's seed offset, and owns a private scenario.
// The cells come back row by row, in order.
func runMatrix(seed int64, rows []matrixRow, cols []matrixColumn) ([][]cellResult, error) {
	type cell struct {
		row  matrixRow
		col  matrixColumn
		seed int64
	}
	cells := make([]cell, 0, len(rows)*len(cols))
	for i, r := range rows {
		for _, c := range cols {
			cells = append(cells, cell{row: r, col: c, seed: seed + int64(i)*101 + c.seedOffset})
		}
	}
	flat, err := exp.Grid(cells, 0, func(c cell) (cellResult, error) {
		res, err := c.row.run(c.col, c.seed)
		if err != nil {
			return res, fmt.Errorf("%s: %w", c.row.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]cellResult, len(rows))
	for i := range out {
		out[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	return out, nil
}

// RunAttackMatrix reproduces the paper's headline result as a matrix:
// each attack is executed against TopoGuard, SPHINX, TOPOGUARD+
// (TopoGuard + CMM + LLI) and the full stack (TOPOGUARD+ plus the rate
// monitor) in fresh scenarios, and each cell reports whether the attack
// succeeded undetected.
func RunAttackMatrix(seed int64) ([]MatrixRow, error) {
	rows := attackRows()
	cells, err := runMatrix(seed, rows, []matrixColumn{
		{def: TopoGuardOnly()},
		{def: SphinxOnly(), seedOffset: 1},
		{def: TopoGuardPlus(), seedOffset: 2},
		{def: FullStack(), seedOffset: 3},
	})
	if err != nil {
		return nil, err
	}
	out := make([]MatrixRow, len(rows))
	for i, c := range cells {
		out[i] = MatrixRow{rows[i].name, c[0].verdict, c[1].verdict, c[2].verdict, c[3].verdict}
	}
	return out, nil
}

// attackRows lists the paper's seven attack rows in report order.
func attackRows() []matrixRow {
	return []matrixRow{
		{"naive link fabrication (LLDP relay)", fabricationCell(attack.FabricationConfig{})},
		{"OOB port amnesia + link fabrication", fabricationCell(attack.FabricationConfig{UseAmnesia: true})},
		{"in-band port amnesia + link fabrication", inBandCell},
		{"naive host hijack (victim online)", naiveHijackCell},
		{"port probing + host hijack (victim in transit)", portProbingCell},
		{"distributed SYN flood (spoofed sources)", floodCell(attack.SYNFlood)},
		{"distributed link saturation (UDP)", floodCell(attack.LinkSaturation)},
	}
}

// landedVerdict scores a link fabrication or a host hijack by whether
// the tampering landed in controller state and whether a relevant alert
// fired. An attack that neither landed nor raised an alert failed: with
// no defense deployed it would have landed, so something silently
// prevented it.
func landedVerdict(landed, alerted bool) Verdict {
	switch {
	case landed && !alerted:
		return Undetected
	case landed:
		return Detected
	case alerted:
		return Blocked
	default:
		return Failed
	}
}

// floodVerdict scores a flood by whether the rate monitor alerted and
// what share of the flood reached the victim. The flood "succeeds" when
// it is delivered largely unthrottled; a defense that both alerts and
// drops the bulk of it at the attackers' ingress ports blocks it.
func floodVerdict(alerted bool, delivered float64) Verdict {
	switch {
	case !alerted && delivered > 0.9:
		return Undetected
	case alerted && delivered < 0.7:
		return Blocked
	case alerted:
		return Detected
	default:
		return Failed
	}
}

// fabricationAlertReasons are the alert codes that count as detecting a
// link fabrication attempt.
var fabricationAlertReasons = []string{
	topoguard.ReasonLLDPFromHost,
	topoguard.ReasonFirstHopFromSwitch,
	sphinx.ReasonLinkChanged,
	tgplus.ReasonControlMessage,
	tgplus.ReasonAbnormalDelay,
}

// fabricationCell runs the out-of-band fabrication with the given attack
// configuration on the Figure 9 testbed.
func fabricationCell(cfg attack.FabricationConfig) matrixCell {
	return func(col matrixColumn, seed int64) (cellResult, error) {
		s := NewFig9Testbed(seed, col.def, col.ctlOpts...)
		defer s.Close()
		if err := s.Run(2 * time.Second); err != nil {
			return cellResult{}, err
		}
		// Attacker ports start HOST-profiled, as in Figure 1.
		s.Host(HostAttackerA).ARPPing(s.Host(HostClient).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		s.Host(HostAttackerB).ARPPing(s.Host(HostServer).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		if err := s.Run(2 * time.Second); err != nil {
			return cellResult{}, err
		}
		if col.def.LLI {
			// Give the LLI its calibration period, as the paper does.
			if err := s.Run(60 * time.Second); err != nil {
				return cellResult{}, err
			}
		}
		fab := attack.NewOOBFabrication(s.Net.Kernel,
			s.Host(HostAttackerA), s.Host(HostAttackerB), s.OOB, cfg)
		fab.Start()
		if err := s.Run(40 * time.Second); err != nil {
			return cellResult{}, err
		}
		fabricated := s.Controller().HasLink(FabricatedLinkFig9()) ||
			s.Controller().HasLink(FabricatedLinkFig9().Reverse())
		return cellResult{verdict: landedVerdict(fabricated, s.alerts(fabricationAlertReasons) > 0)}, nil
	}
}

func inBandCell(col matrixColumn, seed int64) (cellResult, error) {
	s := NewFig9Testbed(seed, col.def, col.ctlOpts...)
	defer s.Close()
	rec := &linkSeen{want: FabricatedLinkFig9()}
	s.Controller().Register(rec)
	if err := s.Run(2 * time.Second); err != nil {
		return cellResult{}, err
	}
	if col.def.LLI {
		if err := s.Run(60 * time.Second); err != nil {
			return cellResult{}, err
		}
	}
	fab := attack.NewInBandFabrication(s.Net.Kernel,
		s.Host(HostAttackerA), s.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(50 * time.Second); err != nil {
		return cellResult{}, err
	}
	return cellResult{verdict: landedVerdict(rec.count > 0, s.alerts(fabricationAlertReasons) > 0)}, nil
}

// hijackAlertReasons are the alert codes that count as detecting a host
// location hijack.
var hijackAlertReasons = []string{
	topoguard.ReasonMigrationPre,
	topoguard.ReasonMigrationPost,
	sphinx.ReasonMultiBinding,
	sphinx.ReasonIPMACConflict,
}

func naiveHijackCell(col matrixColumn, seed int64) (cellResult, error) {
	s := NewFig2Scenario(seed, col.def, col.ctlOpts...)
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return cellResult{}, err
	}
	victim := s.Host(HostVictim)
	victimMAC := victim.MAC()
	// With the victim still online, a committed hijack immediately starts
	// oscillating (the victim's own traffic moves the binding back), so
	// record whether the binding EVER landed on the attacker's port.
	rec := &moveSeen{mac: victimMAC, loc: AttackerLocFig2()}
	s.Controller().Register(rec)
	attack.NaiveHijack(s.Net.Kernel, s.Host(HostAttackerA), victimMAC, victim.IP())
	if err := s.Run(3 * time.Second); err != nil {
		return cellResult{}, err
	}
	return cellResult{verdict: landedVerdict(rec.count > 0, s.alerts(hijackAlertReasons) > 0)}, nil
}

func portProbingCell(col matrixColumn, seed int64) (cellResult, error) {
	s := NewFig2Scenario(seed, col.def, col.ctlOpts...)
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return cellResult{}, err
	}
	victim := s.Host(HostVictim)
	cfg := attack.DefaultHijackConfig(AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.Kernel, s.Host(HostAttackerA), victim.IP(), cfg)
	s.Controller().Register(hj)
	completed := false
	hj.Start(func(attack.Timeline) { completed = true })
	if err := s.Run(3 * time.Second); err != nil {
		return cellResult{}, err
	}
	victim.InterfaceDown()
	if err := s.Run(10 * time.Second); err != nil {
		return cellResult{}, err
	}
	return cellResult{verdict: landedVerdict(completed, s.alerts(hijackAlertReasons) > 0)}, nil
}

// dosAlertReasons are the alert codes that count as detecting a flood.
var dosAlertReasons = []string{ratemon.ReasonPortFlood}

// floodCell runs one flood variant on the column's Figure 9 testbed. A
// column with the rate monitor tunes it for the variant.
func floodCell(variant attack.DoSVariant) matrixCell {
	return func(col matrixColumn, seed int64) (cellResult, error) {
		def := col.def
		if def.RateMon {
			cfg := DoSRateMonConfig(variant)
			def.RateMonConfig = &cfg
		}
		if col.cluster == nil {
			s := NewFig9Testbed(seed, def, col.ctlOpts...)
			defer s.Close()
			v, err := runFlood(s, variant, seed)
			return cellResult{verdict: v}, err
		}
		s := col.cluster.scenario(seed, def)
		defer s.Close()
		v, err := runFlood(&s.Scenario, variant, seed)
		if err != nil {
			return cellResult{}, err
		}
		return s.result(v, false)
	}
}

// runFlood floods the Figure 9 server from both attacker hosts (each on
// its own switch) for 8 s and scores the flood. Only the rate monitor
// reacts to volume, so the topology-integrity stacks are expected to
// score Undetected here.
func runFlood(s *Scenario, variant attack.DoSVariant, seed int64) (Verdict, error) {
	if err := s.Run(2 * time.Second); err != nil {
		return Failed, err
	}
	victim := s.Host(HostServer)
	attackers := []*dataplane.Host{s.Host(HostAttackerA), s.Host(HostAttackerB)}
	for _, a := range attackers {
		a.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	}
	if err := s.Run(2 * time.Second); err != nil {
		return Failed, err
	}
	cfg := attack.DoSConfig{Variant: variant, Seed: seed}
	if variant == attack.SYNFlood {
		cfg.PacketsPerSec = 2500
	} else {
		cfg.PacketsPerSec = 1000
	}
	flood := attack.NewDoS(attackers, victim.MAC(), victim.IP(), cfg)
	flood.Announce()
	if err := s.Run(time.Second); err != nil {
		return Failed, err
	}
	rxBefore := victim.RxFrames()
	flood.Start()
	if err := s.Run(8 * time.Second); err != nil {
		return Failed, err
	}
	flood.Stop()
	if err := s.Run(time.Second); err != nil {
		return Failed, err
	}
	delivered := float64(victim.RxFrames()-rxBefore) / float64(flood.PacketsSent())
	return floodVerdict(s.alerts(dosAlertReasons) > 0, delivered), nil
}

func seedFig2Bindings(s *Scenario) error {
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}
	client := s.Net.Host(HostClient)
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	client.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	attacker.ARPPing(client.IP(), time.Second, func(dataplane.ProbeResult) {})
	return s.Run(3 * time.Second)
}

// moveSeen counts committed host-move events binding one MAC to one port.
type moveSeen struct {
	mac   packet.MAC
	loc   controller.PortRef
	count int
}

func (r *moveSeen) ModuleName() string { return "experiment/move-seen" }

func (r *moveSeen) ObserveHostMove(ev *controller.HostMoveEvent) {
	if ev.MAC == r.mac && ev.New == r.loc {
		r.count++
	}
}

// linkSeen counts accepted updates of one link (used for the flappy
// in-band fabrication, where the link may not be present at sampling time).
type linkSeen struct {
	want  controller.Link
	count int
}

func (r *linkSeen) ModuleName() string { return "experiment/link-seen" }

func (r *linkSeen) ObserveLink(ev *controller.LinkEvent) {
	if ev.Link == r.want || ev.Link == r.want.Reverse() {
		r.count++
	}
}
