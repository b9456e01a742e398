package core

import (
	"fmt"
	"slices"
	"strings"

	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/lldp"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/sphinx"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// Defenses selects which security modules a scenario deploys. The paper's
// TOPOGUARD+ configuration is TopoGuard + CMM + LLI.
type Defenses struct {
	TopoGuard bool
	Sphinx    bool
	CMM       bool
	LLI       bool
	RateMon   bool
	// LLIConfig overrides the Link Latency Inspector configuration
	// (nil uses tgplus.DefaultLLIConfig). Ablation experiments use it to
	// vary the IQR multiplier, window size and control averaging.
	LLIConfig *tgplus.LLIConfig
	// RateMonConfig overrides the rate monitor configuration (nil uses
	// ratemon.DefaultConfig). DoS experiments use it to match the
	// threshold to the modeled access-link bandwidth.
	RateMonConfig *ratemon.Config
}

// NoDefenses deploys a stock controller.
func NoDefenses() Defenses { return Defenses{} }

// TopoGuardOnly deploys the NDSS'15 defense alone.
func TopoGuardOnly() Defenses { return Defenses{TopoGuard: true} }

// SphinxOnly deploys the SPHINX surrogate alone.
func SphinxOnly() Defenses { return Defenses{Sphinx: true} }

// BothBaselines deploys TopoGuard and SPHINX together, the strongest
// pre-existing configuration the paper bypasses.
func BothBaselines() Defenses { return Defenses{TopoGuard: true, Sphinx: true} }

// TopoGuardPlus deploys the paper's full defense.
func TopoGuardPlus() Defenses { return Defenses{TopoGuard: true, CMM: true, LLI: true} }

// RateMonOnly deploys the rate-based DoS monitor alone.
func RateMonOnly() Defenses { return Defenses{RateMon: true} }

// FullStack deploys TOPOGUARD+ plus the rate-based DoS monitor: the
// strongest configuration, covering both topology tampering and
// volumetric flooding.
func FullStack() Defenses {
	return Defenses{TopoGuard: true, CMM: true, LLI: true, RateMon: true}
}

// defenseNames is the stack name table the command-line tools accept:
// each stack with its aliases, in usage order.
var defenseNames = []struct {
	names []string
	def   Defenses
}{
	{[]string{"none"}, NoDefenses()},
	{[]string{"topoguard"}, TopoGuardOnly()},
	{[]string{"sphinx"}, SphinxOnly()},
	{[]string{"both"}, BothBaselines()},
	{[]string{"topoguard+", "tgplus"}, TopoGuardPlus()},
	{[]string{"ratemon"}, RateMonOnly()},
	{[]string{"full", "fullstack"}, FullStack()},
}

// DefenseNames lists the accepted stack names for usage text, aliases
// joined by "|": "none, topoguard, ..., full|fullstack".
func DefenseNames() string {
	stacks := make([]string, len(defenseNames))
	for i, e := range defenseNames {
		stacks[i] = strings.Join(e.names, "|")
	}
	return strings.Join(stacks, ", ")
}

// ParseDefenses resolves a stack name from the DefenseNames table.
func ParseDefenses(name string) (Defenses, error) {
	for _, e := range defenseNames {
		if slices.Contains(e.names, name) {
			return e.def, nil
		}
	}
	return Defenses{}, fmt.Errorf("unknown defense %q (want %s)", name, DefenseNames())
}

// LLDPSecret is the secret every simulated network derives its LLDP
// keychain from.
const LLDPSecret = "controller-lldp-secret"

// ControllerOptions returns the controller options the stack runs on: a
// keychain derived from secret when TopoGuard or the LLI is selected,
// and timestamped probes when the LLI is. Build them once per network
// and hand the same options to every controller of that network, a
// cluster's replicas included: they then share one keychain, whose
// single nonce counter is what keeps AES-GCM nonces unique under the
// shared keys. Two keychains from one secret would each count from 0.
func (d Defenses) ControllerOptions(secret string) ([]controller.Option, error) {
	var opts []controller.Option
	if d.TopoGuard || d.LLI {
		kc, err := lldp.NewKeychain([]byte(secret))
		if err != nil {
			return nil, err
		}
		opts = append(opts, controller.WithKeychain(kc))
	}
	if d.LLI {
		opts = append(opts, controller.WithLLDPTimestamps())
	}
	return opts, nil
}

// Modules are the security modules deployed on one controller, nil when
// not selected.
type Modules struct {
	TopoGuard *topoguard.TopoGuard
	Sphinx    *sphinx.Sphinx
	CMM       *tgplus.CMM
	LLI       *tgplus.LLI
	RateMon   *ratemon.Monitor
}

// Deploy registers the selected modules on ctl in the stack's order
// (TopoGuard, CMM, LLI, SPHINX, RATEMON) and starts their tickers. With
// a cluster replica r, the ticking modules stop while r is crashed and
// restart when it revives; r may be nil. Call after switches are added
// so module tickers observe a populated network.
func (d Defenses) Deploy(ctl *controller.Controller, r *cluster.Replica) Modules {
	var m Modules
	if d.TopoGuard {
		m.TopoGuard = topoguard.New()
		ctl.Register(m.TopoGuard)
	}
	if d.CMM {
		m.CMM = tgplus.NewCMM(0)
		ctl.Register(m.CMM)
	}
	if d.LLI {
		cfg := tgplus.DefaultLLIConfig()
		if d.LLIConfig != nil {
			cfg = *d.LLIConfig
		}
		m.LLI = tgplus.NewLLI(cfg)
		ctl.Register(m.LLI)
		m.LLI.Start()
		if r != nil {
			r.OnCrash(m.LLI.Stop)
			r.OnRestart(m.LLI.Start)
		}
	}
	if d.Sphinx {
		m.Sphinx = sphinx.New(sphinx.DefaultConfig())
		ctl.Register(m.Sphinx)
		m.Sphinx.Start()
	}
	if d.RateMon {
		cfg := ratemon.DefaultConfig()
		if d.RateMonConfig != nil {
			cfg = *d.RateMonConfig
		}
		m.RateMon = ratemon.New(cfg)
		ctl.Register(m.RateMon)
		m.RateMon.Start()
		if r != nil {
			r.OnCrash(m.RateMon.Stop)
			r.OnRestart(m.RateMon.Start)
		}
	}
	return m
}

// Stop halts the modules' background tickers.
func (m Modules) Stop() {
	if m.Sphinx != nil {
		m.Sphinx.Stop()
	}
	if m.LLI != nil {
		m.LLI.Stop()
	}
	if m.RateMon != nil {
		m.RateMon.Stop()
	}
}
