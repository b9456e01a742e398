// Package cluster coordinates N controller replicas over the existing
// internal/controller logic, mirroring OpenFlow 1.3 role semantics on
// OpenFlow 1.0 machinery: every switch has exactly one MASTER replica
// (its control channel attaches to that replica's connection handler)
// and every other replica is a SLAVE for it. Replicas share state
// through a deterministic replicated store — a virtual-time log of
// link discovery, host tracking and port-status mutations, applied
// synchronously to every live replica through the controller's import
// surface — so each replica holds the global topology and host view
// while adjudicating security decisions only for the switches it
// masters.
//
// Failover: when a replica crashes (chaos.ControllerCrash or a direct
// Crash call), its switches drain exactly as Controller.Disconnect
// specifies — every pending probe fails with its timeout canceled, zero
// leaks — and its mastered switches are orphaned. Survivors detect the
// crash after a deterministic heartbeat timeout, hold a seeded election
// (smallest identity-derived timeout wins, ties to the lowest replica
// ID), and the winner takes mastership: it replays the replicated
// store to refresh topology and host state, reattaches the orphaned
// control channels, and the fresh Features handshakes trigger immediate
// LLDP probing. The whole timeline is recorded as a causal span chain
// (election.start → role.handover → state.replay → rediscovery.done)
// and the crash→reconvergence time lands in the cluster_failover_ns
// histogram.
//
// Everything runs on the control shard's kernel: replication applies
// synchronously in virtual time, so cluster runs stay byte-identical
// across shard counts and worker counts like every other subsystem.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/link"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Metric names.
const (
	// MetricFailover is the histogram of crash→reconvergence times.
	MetricFailover = "cluster_failover_ns"
	// MetricElections counts leader elections held.
	MetricElections = "cluster_elections_total"
	// MetricHandovers counts per-switch mastership handovers.
	MetricHandovers = "cluster_role_handovers_total"
	// MetricLogEntries counts replicated-store log appends.
	MetricLogEntries = "cluster_log_entries_total"
	// MetricCrashes counts injected replica crashes.
	MetricCrashes = "cluster_replica_crashes_total"
	// MetricRestarts counts replica revivals.
	MetricRestarts = "cluster_replica_restarts_total"
)

// clusterTag folds the package identity into span IDs and seed
// derivations.
var clusterTag = trace.MixID('c', 'l', 'u')

// clusterSeedTag namespaces the cluster's election draws in MixSeed.
const clusterSeedTag uint64 = 0x636c7573 // "clus"

// Fabric is the network surface the cluster manages: the kernel the
// replicas run on and each switch's control channel, whose B end faces
// whichever replica currently masters the switch. netsim.Network
// satisfies it (with auto-attach disabled).
type Fabric interface {
	ControlKernel() *sim.Kernel
	SwitchIDs() []uint64
	ControlChannel(dpid uint64) *link.Channel
}

// Config tunes the cluster's failure detection and election timing.
type Config struct {
	// Seed drives the election-timeout draws (identity-mixed, so the
	// outcome is a pure function of seed, replica ID and term).
	Seed int64
	// Replicate applies every log append to the other live replicas'
	// import surface (the default). Disabling it models fully isolated
	// controller views — the partitioned-matrix control variant.
	Replicate bool
	// HeartbeatTimeout is how long after a crash the survivors notice
	// the dead replica and start the election.
	HeartbeatTimeout time.Duration
	// ElectionBase and ElectionJitter bound each candidate's seeded
	// election timeout in [Base, Base+Jitter).
	ElectionBase   time.Duration
	ElectionJitter time.Duration
	// RecoveryPoll is the reconvergence polling period after handover.
	RecoveryPoll time.Duration
	// Metrics receives the cluster's counters and the failover
	// histogram (nil for a private registry).
	Metrics *obs.Registry
}

// DefaultConfig returns the evaluation timing: 500 ms failure
// detection, elections drawn from [50 ms, 150 ms), 50 ms recovery
// polls.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:             seed,
		Replicate:        true,
		HeartbeatTimeout: 500 * time.Millisecond,
		ElectionBase:     50 * time.Millisecond,
		ElectionJitter:   100 * time.Millisecond,
		RecoveryPoll:     50 * time.Millisecond,
	}
}

// Replica is one controller instance under cluster coordination.
type Replica struct {
	ID  int
	Ctl *controller.Controller

	alive      bool
	rec        *recorder
	stoppers   []func()
	restarters []func()
}

// Alive reports whether the replica is up.
func (r *Replica) Alive() bool { return r.alive }

// OnCrash registers fn to run when the replica crashes — the hook core
// uses to stop per-replica defense tickers (LLI probing, RATEMON polls)
// the way Scenario.Close does.
func (r *Replica) OnCrash(fn func()) { r.stoppers = append(r.stoppers, fn) }

// OnRestart registers fn to run when the replica is revived.
func (r *Replica) OnRestart(fn func()) { r.restarters = append(r.restarters, fn) }

// store is the replicated state machine every log append materializes
// into: the cluster-wide live link set and host table.
type store struct {
	links map[controller.Link]time.Time
	hosts map[packet.MAC]controller.HostEntry
}

// FailoverTimeline records one completed failover's span boundaries in
// virtual time, for reporting alongside the trace stream.
type FailoverTimeline struct {
	CrashedReplica int
	Winner         int
	Term           uint64
	Orphans        []uint64
	CrashAt        time.Time
	ElectionAt     time.Time
	HandoverAt     time.Time
	ReplayedLinks  int
	ReplayedHosts  int
	ReconvergedAt  time.Time
}

// Reconvergence is the crash→rediscovery.done duration.
func (t FailoverTimeline) Reconvergence() time.Duration { return t.ReconvergedAt.Sub(t.CrashAt) }

// Cluster coordinates the replicas of one control plane.
type Cluster struct {
	fabric Fabric
	kernel *sim.Kernel
	cfg    Config

	replicas []*Replica
	master   map[uint64]int
	st       store
	term     uint64

	tracer   *trace.Recorder
	traceSeq uint64

	failover   *obs.Histogram
	mElections *obs.Counter
	mHandovers *obs.Counter
	mEntries   *obs.Counter
	mCrashes   *obs.Counter
	mRestarts  *obs.Counter

	timelines []FailoverTimeline
}

// New creates a cluster over the fabric. Replicas are added with
// AddReplica; switches attach when SetMaster assigns them.
func New(fabric Fabric, cfg Config) *Cluster {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 500 * time.Millisecond
	}
	if cfg.ElectionBase <= 0 {
		cfg.ElectionBase = 50 * time.Millisecond
	}
	if cfg.ElectionJitter <= 0 {
		cfg.ElectionJitter = 100 * time.Millisecond
	}
	if cfg.RecoveryPoll <= 0 {
		cfg.RecoveryPoll = 50 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cluster{
		fabric:     fabric,
		kernel:     fabric.ControlKernel(),
		cfg:        cfg,
		master:     make(map[uint64]int),
		st:         store{links: make(map[controller.Link]time.Time), hosts: make(map[packet.MAC]controller.HostEntry)},
		failover:   reg.Histogram(MetricFailover),
		mElections: reg.Counter(MetricElections),
		mHandovers: reg.Counter(MetricHandovers),
		mEntries:   reg.Counter(MetricLogEntries),
		mCrashes:   reg.Counter(MetricCrashes),
		mRestarts:  reg.Counter(MetricRestarts),
	}
}

// SetTracer attaches the control shard's span recorder (nil detaches).
func (c *Cluster) SetTracer(r *trace.Recorder) { c.tracer = r }

// AddReplica enrolls a controller as the next replica and wires the
// replication recorder into its hook pipeline. The controller must run
// on the fabric's control kernel.
func (c *Cluster) AddReplica(ctl *controller.Controller) *Replica {
	r := &Replica{ID: len(c.replicas), Ctl: ctl, alive: true}
	r.rec = &recorder{c: c, r: r}
	ctl.Register(r.rec)
	c.replicas = append(c.replicas, r)
	return r
}

// ReplicaCount reports how many replicas are enrolled (alive or not).
func (c *Cluster) ReplicaCount() int { return len(c.replicas) }

// Replicas lists the enrolled replicas in ID order.
func (c *Cluster) Replicas() []*Replica {
	out := make([]*Replica, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// Replica returns one replica by ID, or nil.
func (c *Cluster) Replica(id int) *Replica {
	if id < 0 || id >= len(c.replicas) {
		return nil
	}
	return c.replicas[id]
}

// Term reports the current election term.
func (c *Cluster) Term() uint64 { return c.term }

// MasterOf reports which replica masters a switch.
func (c *Cluster) MasterOf(dpid uint64) (int, bool) {
	id, ok := c.master[dpid]
	return id, ok
}

// Timelines returns every completed failover's recorded timeline.
func (c *Cluster) Timelines() []FailoverTimeline {
	out := make([]FailoverTimeline, len(c.timelines))
	copy(out, c.timelines)
	return out
}

// PendingProbeTotal sums the pending-probe counts across every replica —
// the zero-leak invariant surface.
func (c *Cluster) PendingProbeTotal() int {
	total := 0
	for _, r := range c.replicas {
		total += r.Ctl.PendingProbes().Total()
	}
	return total
}

// LiveLinks snapshots the replicated store's link set in sorted order.
func (c *Cluster) LiveLinks() []controller.Link {
	out := make([]controller.Link, 0, len(c.st.links))
	for l := range c.st.links {
		out = append(out, l)
	}
	sortClusterLinks(out)
	return out
}

// SetMaster assigns a switch's mastership: the switch's control channel
// detaches from its previous master (draining that replica's pending
// probes for it, exactly as a disconnect does) and attaches to the new
// one, which runs a fresh Features handshake.
func (c *Cluster) SetMaster(dpid uint64, rid int) {
	r := c.Replica(rid)
	if r == nil || !r.alive {
		panic(fmt.Sprintf("cluster: SetMaster(0x%x, %d): no such live replica", dpid, rid))
	}
	if prev, ok := c.master[dpid]; ok {
		if prev == rid {
			return
		}
		c.detach(c.replicas[prev], dpid)
	}
	c.master[dpid] = rid
	c.attach(r, dpid)
	c.mHandovers.Inc()
}

func (c *Cluster) attach(r *Replica, dpid uint64) {
	ch := c.fabric.ControlChannel(dpid)
	conn := r.Ctl.Connect(func(b []byte) { ch.Send(link.EndB, b) })
	ch.OnReceive(link.EndB, conn.Handle)
}

func (c *Cluster) detach(r *Replica, dpid uint64) {
	ch := c.fabric.ControlChannel(dpid)
	ch.OnReceive(link.EndB, nil)
	r.Ctl.Disconnect(dpid)
}

// ownedBy lists the switches a replica masters, ascending.
func (c *Cluster) ownedBy(rid int) []uint64 {
	var out []uint64
	for dpid, id := range c.master {
		if id == rid {
			out = append(out, dpid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Crash kills a replica: its defense hooks stop, every mastered switch
// detaches with the full Disconnect drain (zero leaked probes), its
// tickers stop, and — like a real crash — nothing it does on the way
// down reaches the replicated log. Survivors notice after the heartbeat
// timeout and elect a new master for the orphans.
func (c *Cluster) Crash(rid int) bool {
	r := c.Replica(rid)
	if r == nil || !r.alive {
		return false
	}
	r.alive = false
	r.rec.muted = true // a crashed node cannot write the log
	for _, stop := range r.stoppers {
		stop()
	}
	orphans := c.ownedBy(rid)
	for _, dpid := range orphans {
		c.detach(r, dpid)
	}
	r.Ctl.Shutdown()
	c.mCrashes.Inc()
	crashAt := c.kernel.Now()
	c.kernel.Schedule(c.cfg.HeartbeatTimeout, func() {
		c.runElection(rid, crashAt, orphans)
	})
	return true
}

// Restart revives a crashed replica as a SLAVE: tickers resume, the
// replicated store replays into it (fresh lastSeen, so its sweep does
// not immediately evict the restored topology), and its defense hooks
// restart. It regains no mastership until a later election.
func (c *Cluster) Restart(rid int) bool {
	r := c.Replica(rid)
	if r == nil || r.alive {
		return false
	}
	r.Ctl.Resume()
	r.alive = true
	now := c.kernel.Now()
	c.replayInto(r, now)
	r.rec.muted = false
	for _, fn := range r.restarters {
		fn()
	}
	c.mRestarts.Inc()
	return true
}

// electionTimeout draws a candidate's seeded timeout for the current
// term: a pure function of (seed, replica ID, term).
func (c *Cluster) electionTimeout(rid int) time.Duration {
	h := sim.MixSeed(c.cfg.Seed, clusterSeedTag, uint64(rid+1), c.term)
	if h < 0 {
		h = -h
	}
	return c.cfg.ElectionBase + time.Duration(h%int64(c.cfg.ElectionJitter))
}

// runElection holds the seeded election among live replicas: the
// candidate with the smallest timeout fires first and wins (ties break
// to the lowest ID, since candidates are scanned in ID order).
func (c *Cluster) runElection(crashed int, crashAt time.Time, orphans []uint64) {
	c.term++
	winner := -1
	var best time.Duration
	for _, r := range c.replicas {
		if !r.alive {
			continue
		}
		if d := c.electionTimeout(r.ID); winner < 0 || d < best {
			winner, best = r.ID, d
		}
	}
	if winner < 0 {
		return // total control-plane outage: nobody left to elect
	}
	c.mElections.Inc()
	electionAt := c.kernel.Now()
	electSpan := c.emitSpan(0, "election.start", electionAt, electionAt,
		fmt.Sprintf("term=%d crashed=%d candidates drawn, min timeout %v (replica %d)", c.term, crashed, best, winner))
	term := c.term
	c.kernel.Schedule(best, func() {
		c.handover(crashed, term, crashAt, electionAt, winner, orphans, electSpan)
	})
}

// handover executes the election winner's takeover of the orphaned
// switches: mastership flips, the replicated store replays into the
// winner, and the orphans' control channels reattach for rediscovery.
func (c *Cluster) handover(crashed int, term uint64, crashAt, electionAt time.Time, winner int, orphans []uint64, parent uint64) {
	w := c.replicas[winner]
	if !w.alive {
		// The winner died between election and takeover; hold a new
		// election for the same orphans.
		c.kernel.Schedule(c.cfg.HeartbeatTimeout, func() {
			c.runElection(winner, crashAt, orphans)
		})
		return
	}
	handoverAt := c.kernel.Now()
	hoSpan := c.emitSpanUnder(parent, "role.handover", electionAt, handoverAt,
		fmt.Sprintf("term=%d replica %d takes %d switches from %d", term, winner, len(orphans), crashed))
	for _, dpid := range orphans {
		c.master[dpid] = winner
		c.mHandovers.Inc()
	}
	replayLinks, replayHosts := c.replayInto(w, handoverAt)
	replaySpan := c.emitSpanUnder(hoSpan, "state.replay", handoverAt, c.kernel.Now(),
		fmt.Sprintf("replayed %d links, %d hosts into replica %d", replayLinks, replayHosts, winner))
	for _, dpid := range orphans {
		c.attach(w, dpid)
	}
	tl := FailoverTimeline{
		CrashedReplica: crashed,
		Winner:         winner,
		Term:           term,
		Orphans:        orphans,
		CrashAt:        crashAt,
		ElectionAt:     electionAt,
		HandoverAt:     handoverAt,
		ReplayedLinks:  replayLinks,
		ReplayedHosts:  replayHosts,
	}
	c.pollReconvergence(w, tl, replaySpan)
}

// pollReconvergence waits for the winner to complete every orphan's
// Features handshake and refresh every live link incident to the
// orphans through post-handover LLDP, then stamps rediscovery.done and
// the failover histogram.
func (c *Cluster) pollReconvergence(w *Replica, tl FailoverTimeline, parent uint64) {
	c.kernel.Schedule(c.cfg.RecoveryPoll, func() {
		if !w.alive {
			return // a follow-up crash owns recovery now
		}
		if !c.reconverged(w, tl.Orphans, tl.HandoverAt) {
			c.pollReconvergence(w, tl, parent)
			return
		}
		tl.ReconvergedAt = c.kernel.Now()
		c.timelines = append(c.timelines, tl)
		c.failover.Observe(tl.Reconvergence())
		c.emitSpanUnder(parent, "rediscovery.done", tl.HandoverAt, tl.ReconvergedAt,
			fmt.Sprintf("term=%d failover %v crash→reconverged", tl.Term, tl.Reconvergence()))
	})
}

// reconverged checks the winner's takeover: every orphan connected, and
// every live store link incident to an orphan refreshed by LLDP after
// the handover instant.
func (c *Cluster) reconverged(w *Replica, orphans []uint64, handoverAt time.Time) bool {
	connected := make(map[uint64]bool, len(orphans))
	for _, dpid := range w.Ctl.Switches() {
		connected[dpid] = true
	}
	orphan := make(map[uint64]bool, len(orphans))
	for _, dpid := range orphans {
		if !connected[dpid] {
			return false
		}
		orphan[dpid] = true
	}
	for l := range c.st.links {
		if !orphan[l.Src.DPID] && !orphan[l.Dst.DPID] {
			continue
		}
		seen, ok := w.Ctl.LinkLastSeen(l)
		if !ok || seen.Before(handoverAt) {
			return false
		}
	}
	return true
}

// replayInto rebuilds a replica's topology and host state from the
// replicated store, in sorted order, stamping links with a fresh
// lastSeen so the sweep gives rediscovery a full timeout to confirm
// them.
func (c *Cluster) replayInto(r *Replica, now time.Time) (links, hosts int) {
	ls := make([]controller.Link, 0, len(c.st.links))
	for l := range c.st.links {
		ls = append(ls, l)
	}
	sortClusterLinks(ls)
	for _, l := range ls {
		r.Ctl.ImportLink(l, now)
	}
	macs := make([]packet.MAC, 0, len(c.st.hosts))
	for mac := range c.st.hosts {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool {
		for b := 0; b < 6; b++ {
			if macs[i][b] != macs[j][b] {
				return macs[i][b] < macs[j][b]
			}
		}
		return false
	})
	for _, mac := range macs {
		r.Ctl.ImportHost(c.st.hosts[mac])
	}
	return len(ls), len(macs)
}

// Log-append handlers: materialize into the store, then apply to every
// other live replica through the muted import surface.

func (c *Cluster) onLink(origin *Replica, l controller.Link, seen time.Time) {
	c.st.links[l] = seen
	c.mEntries.Inc()
	c.applyToPeers(origin, func(p *Replica) { p.Ctl.ImportLink(l, seen) })
}

func (c *Cluster) onLinkRemoved(origin *Replica, l controller.Link) {
	if _, ok := c.st.links[l]; !ok {
		return
	}
	delete(c.st.links, l)
	c.mEntries.Inc()
	c.applyToPeers(origin, func(p *Replica) { p.Ctl.ImportLinkRemoval(l) })
}

func (c *Cluster) onHost(origin *Replica, h controller.HostEntry) {
	c.st.hosts[h.MAC] = h
	c.mEntries.Inc()
	c.applyToPeers(origin, func(p *Replica) { p.Ctl.ImportHost(h) })
}

func (c *Cluster) onPortStatus(origin *Replica, ev *controller.PortStatusEvent) {
	c.mEntries.Inc()
	c.applyToPeers(origin, func(p *Replica) { p.Ctl.ImportPortStatus(ev) })
}

func (c *Cluster) applyToPeers(origin *Replica, apply func(*Replica)) {
	if !c.cfg.Replicate {
		return
	}
	for _, p := range c.replicas {
		if p == origin || !p.alive {
			continue
		}
		p.rec.muted = true
		apply(p)
		p.rec.muted = false
	}
}

// emitSpan records a root cluster span (no-op without a tracer) and
// returns its ID for chaining.
func (c *Cluster) emitSpan(parent uint64, name string, start, end time.Time, detail string) uint64 {
	return c.emitSpanUnder(parent, name, start, end, detail)
}

func (c *Cluster) emitSpanUnder(parent uint64, name string, start, end time.Time, detail string) uint64 {
	tr := c.tracer
	if tr == nil {
		return 0
	}
	c.traceSeq++
	id := trace.MixID(uint64(trace.KindControl), clusterTag, c.traceSeq)
	tr.Emit(trace.Span{
		ID: id, Parent: parent,
		Start: int64(start.Sub(sim.Epoch)),
		End:   int64(end.Sub(sim.Epoch)),
		Kind:  trace.KindControl, Name: name,
		Entity: clusterTag,
		Detail: detail,
	})
	return id
}

// sortClusterLinks orders links by (Src, Dst) so replay and snapshots
// never depend on map iteration order.
func sortClusterLinks(ls []controller.Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Src != ls[j].Src {
			return ls[i].Src.DPID < ls[j].Src.DPID ||
				(ls[i].Src.DPID == ls[j].Src.DPID && ls[i].Src.Port < ls[j].Src.Port)
		}
		return ls[i].Dst.DPID < ls[j].Dst.DPID ||
			(ls[i].Dst.DPID == ls[j].Dst.DPID && ls[i].Dst.Port < ls[j].Dst.Port)
	})
}

// recorder is the per-replica replication hook: it observes the
// replica's own link, host and port-status mutations and appends them
// to the shared log. muted suppresses observation while a peer's entry
// is being applied (so imports never re-enter the log) and while the
// replica is crashed.
type recorder struct {
	c     *Cluster
	r     *Replica
	muted bool
}

var (
	_ controller.SecurityModule      = (*recorder)(nil)
	_ controller.LinkObserver        = (*recorder)(nil)
	_ controller.LinkRemovalObserver = (*recorder)(nil)
	_ controller.HostMoveObserver    = (*recorder)(nil)
	_ controller.PortStatusObserver  = (*recorder)(nil)
)

// ModuleName implements controller.SecurityModule.
func (rec *recorder) ModuleName() string { return "cluster/replicator" }

// ObserveLink implements controller.LinkObserver.
func (rec *recorder) ObserveLink(ev *controller.LinkEvent) {
	if rec.muted {
		return
	}
	rec.c.onLink(rec.r, ev.Link, ev.ReceivedAt)
}

// ObserveLinkRemoved implements controller.LinkRemovalObserver.
func (rec *recorder) ObserveLinkRemoved(l controller.Link, reason string) {
	if rec.muted {
		return
	}
	rec.c.onLinkRemoved(rec.r, l)
}

// ObserveHostMove implements controller.HostMoveObserver: the entry has
// already committed to the origin's Host Tracking Service, so the
// authoritative record is read back from there.
func (rec *recorder) ObserveHostMove(ev *controller.HostMoveEvent) {
	if rec.muted {
		return
	}
	if h, ok := rec.r.Ctl.HostByMAC(ev.MAC); ok {
		rec.c.onHost(rec.r, h)
	}
}

// ObservePortStatus implements controller.PortStatusObserver.
func (rec *recorder) ObservePortStatus(ev *controller.PortStatusEvent) {
	if rec.muted {
		return
	}
	rec.c.onPortStatus(rec.r, ev)
}
