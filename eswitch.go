// Package eswitch is a Go reproduction of "Dataplane Specialization for
// High-performance OpenFlow Software Switching" (Molnár et al., SIGCOMM
// 2016): an OpenFlow software switch that compiles the configured pipeline
// into a specialized fast path built from flow-table templates (direct code,
// compound hash, LPM, tuple space search) instead of relying on a
// general-purpose flow cache.
//
// The package is a thin facade over the implementation packages under
// internal/: it re-exports the pipeline-construction API (matches, actions,
// flow tables), the ESWITCH compiler and runtime (Switch), the flow-caching
// baseline it is evaluated against (Baseline), the workload/use-case library
// of the paper's evaluation, and the deterministic CPU cost model used to
// regenerate the paper's figures.
//
// A minimal program:
//
//	pl := eswitch.NewPipeline(2)
//	pl.Table(0).AddFlow(100,
//	    eswitch.NewMatch().Set(eswitch.FieldTCPDst, 80),
//	    eswitch.Apply(eswitch.Output(2)))
//	pl.Table(0).AddFlow(0, eswitch.NewMatch(), eswitch.Apply(eswitch.Drop()))
//
//	sw, _ := eswitch.New(pl, eswitch.DefaultOptions())
//	var v eswitch.Verdict
//	sw.Process(pkt, &v)
//
// # Burst processing
//
// Process handles one packet per call.  High-rate callers should use
// ProcessBurst, which takes a whole receive burst (DPDK-style, typically 32
// packets) and runs it through the compiled fast path as a unit: the burst
// is parsed to the specialized layer in one pass, packets traversing the
// same flow table are classified through the table's template in a single
// batched lookup (the compound-hash template packs and hashes every key of
// the burst before probing, the LPM template batches its DIR-24-8 probes),
// and per-packet overheads — trampoline loads, action-set resets — are paid
// once per burst instead of once per packet.  The burst
// path is allocation-free in the steady state.
//
//	ps := []*eswitch.Packet{...}          // up to one RX burst
//	vs := make([]eswitch.Verdict, len(ps))
//	sw.ProcessBurst(ps, vs)
//
// Concurrency contract: the steady-state forwarding path is lock-free.  The
// compiled state is published through an atomically-swapped snapshot plus
// per-table trampolines.  Flow-table updates (AddFlow, DeleteFlow) run one at
// a time: the compound-hash and LPM templates take them in place on their one
// live copy with single-word atomic stores, any other table is rebuilt off to
// the side and swapped in with one atomic store, and memory an update retired
// is reused only after every registered worker epoch has passed a quiescent
// point (DPDK-style QSBR).
// Process and ProcessBurst may therefore be called from many goroutines
// concurrently with updates — each call pins a recycled worker (epoch,
// burst scratch, verdict cache) for its duration.  Dedicated forwarding
// cores do better: they register a worker handle once
// (Datapath().RegisterWorker), bracket every burst with Enter/Exit, and
// process through the handle, paying zero locks, zero atomic
// read-modify-writes and zero shared mutable state per burst — the handle
// owns its burst scratch outright.  The dataplane substrate under
// internal/dpdk does exactly this: RSS-steered multi-queue ports, one burst
// worker per core over its own queue subset, batched TX that drops what a
// full TX ring does not take, as a NIC does.  The cycle model
// (Options.Meter) is a reading, not a forwarding mode: a metered Process runs
// the burst engine as a recording burst of one, which notes what each table
// lookup examined — the same steps Trace returns — and prices that record
// (one caller at a time); no other burst is ever metered.  See docs/architecture.md for the full
// threading model.
package eswitch

import (
	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/perfmodel"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// ---------------------------------------------------------------------------
// Pipeline model (re-exported from the OpenFlow substrate)
// ---------------------------------------------------------------------------

// Core pipeline types.
type (
	// Pipeline is a multi-table OpenFlow pipeline.
	Pipeline = openflow.Pipeline
	// FlowTable is one pipeline stage.
	FlowTable = openflow.FlowTable
	// FlowEntry is one prioritized rule.
	FlowEntry = openflow.FlowEntry
	// Match is a wildcard match over header fields.
	Match = openflow.Match
	// Field identifies an OpenFlow match field.
	Field = openflow.Field
	// Action is a single OpenFlow action.
	Action = openflow.Action
	// ActionList is an ordered action list.
	ActionList = openflow.ActionList
	// Instructions attach actions and goto_table behaviour to an entry.
	Instructions = openflow.Instructions
	// TableID identifies a flow table.
	TableID = openflow.TableID
	// Verdict is the outcome of processing one packet.
	Verdict = openflow.Verdict
	// PuntReason says why a verdict was punted to the controller.
	PuntReason = openflow.PuntReason
	// Packet is a raw packet plus parsed header view.
	Packet = pkt.Packet
	// MAC is an Ethernet address.
	MAC = pkt.MAC
	// IPv4 is an IPv4 address.
	IPv4 = pkt.IPv4
)

// Punt reasons (Verdict.PuntReason).
const (
	PuntNone   = openflow.PuntNone
	PuntMiss   = openflow.PuntMiss
	PuntAction = openflow.PuntAction
)

// Match fields (a subset of OXM).
const (
	FieldInPort   = openflow.FieldInPort
	FieldMetadata = openflow.FieldMetadata
	FieldEthDst   = openflow.FieldEthDst
	FieldEthSrc   = openflow.FieldEthSrc
	FieldEthType  = openflow.FieldEthType
	FieldVLANID   = openflow.FieldVLANID
	FieldVLANPCP  = openflow.FieldVLANPCP
	FieldIPSrc    = openflow.FieldIPSrc
	FieldIPDst    = openflow.FieldIPDst
	FieldIPProto  = openflow.FieldIPProto
	FieldIPDSCP   = openflow.FieldIPDSCP
	FieldTCPSrc   = openflow.FieldTCPSrc
	FieldTCPDst   = openflow.FieldTCPDst
	FieldUDPSrc   = openflow.FieldUDPSrc
	FieldUDPDst   = openflow.FieldUDPDst
	FieldICMPType = openflow.FieldICMPType
	FieldARPOp    = openflow.FieldARPOp
	FieldARPSPA   = openflow.FieldARPSPA
	FieldARPTPA   = openflow.FieldARPTPA
	FieldTCPFlags = openflow.FieldTCPFlags
)

// NewPipeline returns an empty pipeline with the given number of ports.
func NewPipeline(numPorts int) *Pipeline { return openflow.NewPipeline(numPorts) }

// NewMatch returns an empty (match-everything) match.
func NewMatch() *Match { return openflow.NewMatch() }

// NewEntry builds a flow entry.
func NewEntry(priority int, match *Match, ins Instructions) *FlowEntry {
	return openflow.NewEntry(priority, match, ins)
}

// Apply returns instructions that apply the given actions and terminate.
func Apply(actions ...Action) Instructions { return openflow.Apply(actions...) }

// Goto returns instructions that jump to the given table.
func Goto(t TableID) Instructions { return openflow.Goto(t) }

// ApplyThenGoto applies actions and continues at the given table.
func ApplyThenGoto(t TableID, actions ...Action) Instructions {
	return openflow.ApplyThenGoto(t, actions...)
}

// Output returns an output action.
func Output(port uint32) Action { return openflow.Output(port) }

// Drop returns an explicit drop action.
func Drop() Action { return openflow.Drop() }

// Flood returns a flood action.
func Flood() Action { return openflow.Flood() }

// ToController returns a punt-to-controller action.
func ToController() Action { return openflow.ToController() }

// SetField returns a header-rewrite action.
func SetField(f Field, value uint64) Action { return openflow.SetField(f, value) }

// PushVLAN returns a push-VLAN action.
func PushVLAN(vid uint16) Action { return openflow.PushVLAN(vid) }

// PopVLAN returns a pop-VLAN action.
func PopVLAN() Action { return openflow.PopVLAN() }

// DecTTL returns a decrement-TTL action.
func DecTTL() Action { return openflow.DecTTL() }

// IPv4FromOctets builds an IPv4 address from dotted-quad octets.
func IPv4FromOctets(a, b, c, d byte) IPv4 { return pkt.IPv4FromOctets(a, b, c, d) }

// MACFromUint64 builds a MAC address from the low 48 bits of v.
func MACFromUint64(v uint64) MAC { return pkt.MACFromUint64(v) }

// NewInterpreter returns the reference "direct datapath" interpreter over the
// pipeline — the semantic ground truth the compiled fast paths are tested
// against.
func NewInterpreter(pl *Pipeline) *openflow.Interpreter { return openflow.NewInterpreter(pl) }

// ---------------------------------------------------------------------------
// ESWITCH: the compiled switch
// ---------------------------------------------------------------------------

// Options configure ESWITCH compilation; see DefaultOptions.
type Options = core.Options

// TemplateKind identifies one of the four flow-table templates.
type TemplateKind = core.TemplateKind

// Flow-table templates.
const (
	TemplateDirectCode = core.TemplateDirectCode
	TemplateHash       = core.TemplateHash
	TemplateLPM        = core.TemplateLPM
	TemplateLinkedList = core.TemplateLinkedList
)

// TableStage describes one compiled table (template and size).
type TableStage = core.TableStage

// FlowCacheStats are the folded per-worker verdict cache counters
// (see Options.FlowCache).  Stale is the subset of Misses whose probe found a
// matching key but lost it to a flow-mod that could have changed its verdict;
// Revalidated the subset of Hits whose probe found a key from before a
// flow-mod that could not; Expired the part of Stale lost to the number of
// flow-mods since rather than to any one of them; Flushes the flow-mods that
// staled every older entry.  While the cache is armed, Hits+Misses equals the
// number of packets classified through the burst path.
type FlowCacheStats = core.FlowCacheStats

// RemovedFlow describes one flow entry removed by the lifecycle sweeper.
type RemovedFlow = core.RemovedFlow

// SweeperConfig configures the flow lifecycle sweeper (see StartSweeper).
type SweeperConfig = core.SweeperConfig

// Sweeper is the flow lifecycle plane: a per-datapath background scanner that
// expires entries carrying idle/hard timeouts and evicts down to a soft table
// limit, entirely off the hot path (see core.Sweeper).
type Sweeper = core.Sweeper

// Flow-removal reasons (RemovedFlow.Reason); numerically equal to the ofp
// FlowRemoved wire reasons.
const (
	RemovedIdleTimeout = core.RemovedIdleTimeout
	RemovedHardTimeout = core.RemovedHardTimeout
	RemovedDelete      = core.RemovedDelete
	RemovedEviction    = core.RemovedEviction
)

// DefaultOptions returns the paper's compilation defaults: direct code for
// tables of at most 4 entries, and every other setting off — no
// decomposition, no per-entry counters, no verdict cache, no table-size cap
// and no cycle meter.
func DefaultOptions() Options { return core.DefaultOptions() }

// Switch is a compiled ESWITCH datapath: the pipeline is specialized into
// per-table templates at creation time and kept specialized across updates.
type Switch struct {
	dp *core.Datapath
}

// New compiles the pipeline into an ESWITCH fast path.  The switch takes pl
// over, as AddFlow takes its entry: flow-mods update pl's tables, and neither
// pl nor an entry of it may be modified, or handed to another switch, after
// the call.  To build two switches from one pipeline, give one a Clone.
func New(pl *Pipeline, opts Options) (*Switch, error) {
	dp, err := core.Compile(pl, opts)
	if err != nil {
		return nil, err
	}
	return &Switch{dp: dp}, nil
}

// Process sends one packet through the compiled fast path: a burst of one,
// so it takes the verdict cache where the pipeline arms one, and per-flow
// counters are exact when it returns.
func (s *Switch) Process(p *Packet, v *Verdict) { s.dp.Process(p, v) }

// ProcessBurst sends a burst of packets through the compiled fast path,
// filling vs[i] with the verdict for ps[i]; len(vs) must be at least
// len(ps).  See the package documentation for the burst execution model and
// concurrency contract.
func (s *Switch) ProcessBurst(ps []*Packet, vs []Verdict) { s.dp.ProcessBurst(ps, vs) }

// AddFlow installs a flow entry in the running datapath (transactional,
// per-table granularity).  The switch takes the entry over: neither it nor
// its match may be modified after the call.
func (s *Switch) AddFlow(table TableID, e *FlowEntry) error { return s.dp.AddFlow(table, e) }

// DeleteFlow removes matching flow entries from the running datapath.
func (s *Switch) DeleteFlow(table TableID, match *Match, priority int) (int, error) {
	return s.dp.DeleteFlow(table, match, priority)
}

// Stages describes the compiled tables (which template each uses).
func (s *Switch) Stages() []TableStage { return s.dp.Stages() }

// TableTemplate reports the template a table compiled into.
func (s *Switch) TableTemplate(id TableID) (TemplateKind, bool) { return s.dp.TableTemplate(id) }

// Pipeline returns the (possibly decomposed) pipeline the switch executes.
// Its flow tables build their order on read, so a read may write: read the
// pipeline only while no AddFlow, DeleteFlow, Sweeper pass or FlowSamples
// call can run on the switch.
func (s *Switch) Pipeline() *Pipeline { return s.dp.Pipeline() }

// Meter returns the cycle meter attached via Options.Meter (nil when absent).
func (s *Switch) Meter() *Meter { return s.dp.Meter() }

// Rebuilds returns how many per-table template (re)builds have happened.
func (s *Switch) Rebuilds() uint64 { return s.dp.Rebuilds() }

// FlowCacheStats folds the verdict cache counters over every worker that ever
// forwarded through this switch (all zero unless Options.FlowCache is set and
// the pipeline arms the cache; see core.Options.FlowCache).
func (s *Switch) FlowCacheStats() FlowCacheStats { return s.dp.FlowCacheStats() }

// NewSweeper builds a flow lifecycle sweeper over this switch's datapath.
// Run it on its own goroutine (Sweeper.Run) or drive it manually
// (Sweeper.SweepOnce); see SweeperConfig for timeouts, soft-limit eviction
// and the OnRemoved announcement hook.
func (s *Switch) NewSweeper(cfg SweeperConfig) *Sweeper { return core.NewSweeper(s.dp, cfg) }

// IncrementalUpdates returns how many updates avoided a rebuild.
func (s *Switch) IncrementalUpdates() uint64 { return s.dp.IncrementalUpdates() }

// PerformanceModel derives the analytic §4.4 performance model of the
// compiled datapath.
func (s *Switch) PerformanceModel(name string) perfmodel.Model {
	return perfmodel.FromStages(name, s.dp.Stages())
}

// Datapath exposes the underlying compiled datapath for advanced callers
// (the experiment harness).
func (s *Switch) Datapath() *core.Datapath { return s.dp }

// ---------------------------------------------------------------------------
// Observability plane
// ---------------------------------------------------------------------------

// TraceResult is a pipeline packet trace: every table lookup of one packet's
// walk, the verdict, and the verdict-cache explanation (see Switch.Trace).
type TraceResult = core.TraceResult

// TraceStep is one table lookup of a TraceResult.
type TraceStep = core.TraceStep

// TraceStaleMod is the logged flow-mod a TraceResult names as staling the
// traced packet's memoized verdicts.
type TraceStaleMod = core.TraceStaleMod

// FlowSample is one flow entry's identity and counter snapshot (see
// Switch.FlowSamples).
type FlowSample = core.FlowSample

// Trace replays one frame through the compiled pipeline as if it had been
// received on inPort and explains every step: which table was consulted
// through which compiled template, what matched, the final verdict, whether
// the pipeline arms the verdict cache and on which compiled key, how many of
// the logged flow-mods a memoized verdict survives and which one stales it.
// The replay is the forwarding engine's own walk, run as a recording burst of
// one off the hot path (epoch-pinned like Process); it never bumps per-flow
// counters and never probes or fills the verdict cache — the ofproto/trace
// analogue for the compiled datapath.  The frame may be rewritten in place,
// exactly as forwarding would rewrite it.
func (s *Switch) Trace(frame []byte, inPort uint32) *TraceResult {
	p := Packet{Data: frame, InPort: inPort}
	return s.dp.Trace(&p)
}

// FlowSamples appends a counter snapshot of every installed flow entry to
// buf (reusing its capacity) and returns it: the flow exporter's sampling
// primitive.  Packet/byte counts are zero unless the switch was compiled
// with Options.UpdateCounters; FlowSample.Entry is a stable per-entry
// identity for delta tracking across samples.
func (s *Switch) FlowSamples(buf []FlowSample) []FlowSample { return s.dp.FlowSamples(buf) }

// ---------------------------------------------------------------------------
// The flow-caching baseline (OVS-style)
// ---------------------------------------------------------------------------

// BaselineOptions configure the flow-caching baseline switch.
type BaselineOptions = ovs.Options

// BaselineStats are the per-cache-level counters of the baseline.
type BaselineStats = ovs.LevelStats

// DefaultBaselineOptions returns OVS-like defaults.
func DefaultBaselineOptions() BaselineOptions { return ovs.DefaultOptions() }

// Baseline is the flow-caching (microflow/megaflow/slow-path) baseline
// switch the paper compares against.
type Baseline = ovs.Switch

// NewBaseline builds the baseline switch over the pipeline, taking pl over as
// New does.
func NewBaseline(pl *Pipeline, opts BaselineOptions) (*Baseline, error) { return ovs.New(pl, opts) }

// ---------------------------------------------------------------------------
// Cost model & analytic performance model
// ---------------------------------------------------------------------------

// Platform describes the modelled CPU (Table 1 of the paper by default).
type Platform = cpumodel.Platform

// Meter accumulates per-packet cycle and cache-level accounting.
type Meter = cpumodel.Meter

// PerfModel is the analytic per-packet cost model of §4.4.
type PerfModel = perfmodel.Model

// DefaultPlatform returns the paper's system-under-test (Table 1).
func DefaultPlatform() Platform { return cpumodel.DefaultPlatform() }

// NewMeter returns a cycle meter with a simulated cache hierarchy.
func NewMeter(p Platform) *Meter { return cpumodel.NewMeter(p) }

// GatewayPerfModel returns the hand-derived gateway model of Fig. 20.
func GatewayPerfModel() PerfModel { return perfmodel.GatewayModel() }

// ---------------------------------------------------------------------------
// Workloads & traffic
// ---------------------------------------------------------------------------

// UseCase bundles a pipeline with a traffic generator.
type UseCase = workload.UseCase

// GatewayConfig parameterizes the access-gateway use case.
type GatewayConfig = workload.GatewayConfig

// TrafficFlow describes one synthetic flow for the traffic generator.
type TrafficFlow = pktgen.Flow

// Trace is a replayable traffic trace.
type Trace = pktgen.Trace

// NewTrace pre-builds frames for the given flows.
func NewTrace(flows []TrafficFlow, shuffleSeed int64) *Trace {
	return pktgen.NewTrace(flows, shuffleSeed)
}

// L2UseCase builds the MAC-switching use case of §4.1.
func L2UseCase(tableSize, numPorts int) *UseCase { return workload.L2UseCase(tableSize, numPorts) }

// L3UseCase builds the IP-routing use case of §4.1.
func L3UseCase(numPrefixes, numPorts int, seed int64) *UseCase {
	return workload.L3UseCase(numPrefixes, numPorts, seed)
}

// LoadBalancerUseCase builds the web load-balancer use case of Fig. 7.
func LoadBalancerUseCase(numServices int) *UseCase { return workload.LoadBalancerUseCase(numServices) }

// GatewayUseCase builds the telco access-gateway use case of Fig. 8.
func GatewayUseCase(cfg GatewayConfig) *UseCase { return workload.GatewayUseCase(cfg) }

// DefaultGatewayConfig returns the paper's gateway configuration (10 CEs, 20
// users per CE, 10K prefixes).
func DefaultGatewayConfig() GatewayConfig { return workload.DefaultGatewayConfig() }

// FirewallSingleStage builds the Fig. 1a firewall pipeline.
func FirewallSingleStage() *Pipeline { return workload.FirewallSingleStage() }

// FirewallMultiStage builds the Fig. 1b firewall pipeline.
func FirewallMultiStage() *Pipeline { return workload.FirewallMultiStage() }

// ParsePacket parses p's headers up to the transport layer; examples use it
// to inspect rewritten packets.
func ParsePacket(p *Packet) { pkt.ParseL4(p) }
