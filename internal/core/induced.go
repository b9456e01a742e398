package core

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/exp"
	"sdntamper/internal/hypervisor"
	"sdntamper/internal/packet"
	"sdntamper/internal/stats"
)

// InducedMigrationResult reports one end-to-end run of the Section IV-B
// extension: instead of waiting for the victim to migrate, the attacker
// co-locates a guest with it and saturates shared resources until the
// hypervisor's balancer moves the victim — then wins the race as usual.
type InducedMigrationResult struct {
	// LoadRaisedAt is when the co-located guest began the resource DoS.
	LoadRaisedAt time.Time
	// MigrationStartedAt is when the hypervisor took the victim down.
	MigrationStartedAt time.Time
	// Downtime is the live-migration window the balancer produced.
	Downtime time.Duration
	// HijackCompletedAt is when the controller bound the victim identity
	// to the attacker's port (zero if the attack lost the race).
	HijackCompletedAt time.Time
	// VictimReturnedAt is when the migrated victim resumed at its new port.
	VictimReturnedAt time.Time
	// HijackWon reports completion strictly inside the downtime window.
	HijackWon bool
	// AlertsDuringWindow counts defense alerts raised before the victim
	// returned (the undetected phase must have none).
	AlertsDuringWindow int
	// AlertsAfterReturn counts alerts once the victim re-appeared.
	AlertsAfterReturn int
}

// InducedMigrationSummary aggregates RunInducedMigration over many seeded
// trials: how often the attacker wins the migration race, how long the
// balancer's hysteresis delays the trigger, and the downtime windows the
// balancer produced.
type InducedMigrationSummary struct {
	Runs         int
	Wins         int
	WinRate      float64
	TriggerDelay stats.DurationSeries // load raised -> migration start
	Downtime     stats.DurationSeries // live-migration window
	AlertsDuring int                  // summed over runs, before victim return
	AlertsAfter  int                  // summed over runs, after victim return
}

// inducedSeedStride spaces per-trial kernel seeds (a prime, as elsewhere).
const inducedSeedStride = 104729

// RunInducedMigrationSeries runs the induced-migration hijack across many
// seeded trials on the parallel executor and merges the outcomes in seed
// order. workers <= 0 uses one worker per CPU.
func RunInducedMigrationSeries(seed int64, runs, workers int) (*InducedMigrationSummary, error) {
	if runs <= 0 {
		runs = 10
	}
	results, err := exp.Grid(exp.Seeds(seed, runs, inducedSeedStride), workers, RunInducedMigration)
	if err != nil {
		return nil, err
	}
	out := &InducedMigrationSummary{Runs: runs}
	for _, r := range results {
		if r.HijackWon {
			out.Wins++
		}
		out.TriggerDelay.Add(r.MigrationStartedAt.Sub(r.LoadRaisedAt))
		out.Downtime.Add(r.Downtime)
		out.AlertsDuring += r.AlertsDuringWindow
		out.AlertsAfter += r.AlertsAfterReturn
	}
	out.WinRate = float64(out.Wins) / float64(runs)
	return out, nil
}

// RunInducedMigration executes the induced-migration hijack on the
// Figure 2 network with TopoGuard and SPHINX deployed.
func RunInducedMigration(seed int64) (*InducedMigrationResult, error) {
	s := NewFig2Scenario(seed, BothBaselines())
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return nil, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	victimMAC, victimIP := victim.MAC(), victim.IP()
	res := &InducedMigrationResult{}

	// The physical machine hosting the victim also hosts the attacker's
	// co-located guest (which is NOT the SDN attacker host: it exists
	// only to burn the shared resource).
	hv := hypervisor.New(s.Net.Kernel, hypervisor.DefaultConfig(), hypervisor.Callbacks{
		Down: func(vm string) {
			if vm != HostVictim {
				return
			}
			res.MigrationStartedAt = s.Net.Kernel.Now()
			victim.InterfaceDown()
		},
		Up: func(vm string, downtime time.Duration) {
			if vm != HostVictim {
				return
			}
			res.Downtime = downtime
			res.VictimReturnedAt = s.Net.Kernel.Now()
			reborn := s.Net.MoveHost(HostVictim+"-migrated", victimMAC.String(), victimIP.String(), 0x2, 4, nil)
			reborn.Send(packet.NewARPRequest(victimMAC, victimIP, victimIP))
		},
	})
	defer hv.Shutdown()
	hv.AddVM(HostVictim, 0.5, true)
	hv.AddVM("colo-ddos", 0.1, false)

	// Arm the port-probing automaton before inducing anything.
	cfg := attack.DefaultHijackConfig(AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.Kernel, attacker, victimIP, cfg)
	s.Controller().Register(hj)
	hj.Start(func(tl attack.Timeline) { res.HijackCompletedAt = tl.ControllerAck })
	if err := s.Run(3 * time.Second); err != nil {
		return nil, err
	}

	// The resource DoS: cache dirtying / heavy disk I/O from the
	// co-located guest.
	res.LoadRaisedAt = s.Net.Kernel.Now()
	if err := hv.SetLoad("colo-ddos", 0.9); err != nil {
		return nil, err
	}

	// Run until the victim has migrated and returned (bounded).
	for waited := time.Duration(0); waited < 5*time.Minute; waited += time.Second {
		if err := s.Run(time.Second); err != nil {
			return nil, err
		}
		if !res.VictimReturnedAt.IsZero() {
			break
		}
	}
	if res.MigrationStartedAt.IsZero() {
		return nil, fmt.Errorf("hypervisor never migrated the victim")
	}
	alertsAtReturn := 0
	for _, a := range s.Controller().Alerts() {
		if !res.VictimReturnedAt.IsZero() && a.At.Before(res.VictimReturnedAt) {
			alertsAtReturn++
		}
	}
	res.AlertsDuringWindow = alertsAtReturn
	// Let the post-return oscillation surface.
	if err := s.Run(5 * time.Second); err != nil {
		return nil, err
	}
	res.AlertsAfterReturn = len(s.Controller().Alerts()) - alertsAtReturn
	res.HijackWon = !res.HijackCompletedAt.IsZero() &&
		(res.VictimReturnedAt.IsZero() || res.HijackCompletedAt.Before(res.VictimReturnedAt))
	return res, nil
}
