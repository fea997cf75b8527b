package core

import (
	"fmt"
	"strings"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file is the observability plane's window into the compiled datapath:
//
//   - FlowSamples reads a counter snapshot of every installed flow entry
//     (the flow exporter's sampling primitive — the same locked phase-1 walk
//     the lifecycle sweeper performs, so export and expiry observe flows
//     identically);
//   - Trace replays one packet through the burst engine as a recording
//     burst of one, off the hot path, recording what forwarding only
//     decides: which table, compiled template and entry classified the
//     packet at every step, and what the verdict cache would have done with
//     it.
//
// Neither touches the worker hot path: both run under the writer mutex or an
// epoch pin, exactly like the admin operations that already exist.

// FlowSample is one flow entry's identity and counter snapshot.
type FlowSample struct {
	Table    openflow.TableID
	Priority int
	Match    *openflow.Match
	Cookie   uint64
	// IdleTimeout/HardTimeout are the entry's configured lifetimes
	// (seconds; zero = none).
	IdleTimeout uint16
	HardTimeout uint16
	// Packets/Bytes are the entry's counters at sampling time (zero unless
	// the datapath was compiled with Options.UpdateCounters).
	Packets, Bytes uint64
	// Entry is the sampled entry's identity: stable for the entry's
	// lifetime, never reused across a replace (a FlowMod that replaces an
	// entry installs a fresh one), so samplers key per-flow delta state on
	// it exactly like the lifecycle sweeper does.
	Entry *openflow.FlowEntry
}

// FlowSamples appends a counter snapshot of every installed flow entry to
// buf (reusing its capacity) and returns it.  It takes the update mutex for
// the duration of the walk — the forwarding workers never notice.  Parked
// pinned workers' counter deltas are folded first (flowctr.go), so the
// samples are exact once traffic through the facade paths has quiesced; a
// live registered worker may still hold back at most ctrFlushPackets
// packets of deltas until its next idle poll.
func (d *Datapath) FlowSamples(buf []FlowSample) []FlowSample {
	d.flushPinnedCounters()
	buf = buf[:0]
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.source.Tables() {
		for _, e := range t.Entries() {
			buf = append(buf, FlowSample{
				Table:       t.ID,
				Priority:    e.Priority,
				Match:       e.Match,
				Cookie:      e.Cookie,
				IdleTimeout: e.IdleTimeout,
				HardTimeout: e.HardTimeout,
				Packets:     e.Counters.Packets.Load(),
				Bytes:       e.Counters.Bytes.Load(),
				Entry:       e,
			})
		}
	}
	return buf
}

// TraceStep is one table lookup of a trace: which table was consulted,
// through which compiled template, what the template examined, and what it
// decided.  It is also the record the cycle model prices (priceWalk).
type TraceStep struct {
	Table    openflow.TableID
	Template TemplateKind
	// Entries is the table's compiled entry count at trace time.
	Entries int
	// Examined is how much of the table the lookup touched: the rules
	// direct code tested, the DIR-24-8 levels an LPM lookup read, the
	// tuples the linked list probed, or 1 for a hash probe made and 0 for
	// one skipped because the packet lacks the key's protocols.
	Examined int
	// Offset is the key-derived position the lookup touched: the fold of
	// the hash key, the LPM address, or the linked list's ip_dst.  It is
	// taken at lookup time, before any later set-field rewrites the
	// headers.  Direct code leaves it zero.
	Offset uint64
	// Matched reports whether the lookup found an entry; the remaining
	// fields are meaningful only when it did.
	Matched  bool
	Priority int
	// Match is the matched entry's match, shared with the running datapath:
	// it is read-only.
	Match *openflow.Match
	// Apply is the matched entry's apply-actions list.
	Apply openflow.ActionList
	// Next is the goto_table target (valid when HasNext).
	Next    openflow.TableID
	HasNext bool
	// Outcome is how executing the matched entry ended: on to Next, dropped,
	// or terminal.
	Outcome openflow.Step
	// bucket is the table's stage bucket (scope.go), which Trace's cache
	// explanation reads.
	bucket uint8
}

// matched records the entry the step's lookup found.
func (s *TraceStep) matched(ce *compiledEntry) {
	s.Matched = true
	s.Priority = ce.entry.Priority
	s.Match = ce.entry.Match
	s.Apply = ce.ins.ApplyActions
	s.Next, s.HasNext = ce.ins.GotoTable, ce.ins.HasGoto
}

// TraceResult is the full explanation of one packet's pipeline walk.
type TraceResult struct {
	// InPort echoes the traced packet's ingress port.
	InPort uint32
	// ParserLayer is how deep the specialized parser parses.
	ParserLayer pkt.Layer
	// Headers is the parsed view of the packet before any rewrites.
	Headers pkt.Headers
	// FlowHash is the packet's symmetric RSS hash: which RX queue a
	// multi-queue NIC steers it to.
	FlowHash uint32
	// Generation is the datapath generation the trace ran under.
	Generation uint64
	// Armed reports whether the burst path probes the verdict cache for this
	// pipeline; CacheKey lists the fields of the compiled key it probes on
	// and Unarmed says, when it is not armed, why (Datapath.FlowCacheKey).
	Armed    bool
	CacheKey string
	Unarmed  string
	// Revalidated and Stale explain what the flow-mods in the scope log
	// mean for a verdict memoized under this packet's key (meaningful when
	// Armed), by the probe's stage rule: an entry as old as the Revalidated
	// newest mods is still served; Stale is the mod just before those, the
	// newest one on a table the walk visits that overlaps the key, or a
	// barrier, and so stales anything memoized before its generation — nil
	// when no logged mod does.
	Revalidated int
	Stale       *TraceStaleMod
	// Steps are the table lookups in walk order.
	Steps []TraceStep
	// Verdict is the walk's outcome.
	Verdict openflow.Verdict
}

// TraceStaleMod identifies a logged flow-mod by the generation it produced
// and the table it modified; Barrier marks one the scope analysis could not
// narrow (it stales every packet, not just this one).
type TraceStaleMod struct {
	Generation uint64
	Table      openflow.TableID
	Barrier    bool
}

// Trace replays one packet through the compiled pipeline and explains every
// step.  It is a recording burst of one (recordBurst): the wave engine the
// forwarding workers run, stepping every table per slot, so it cannot
// disagree with forwarding.  It never probes or fills a cache, counts nothing
// (its scratch has no counter accumulator) and charges no meter; p is parsed
// and may be rewritten in place, exactly as forwarding would.  Safe to call
// from any goroutine concurrently with forwarding and flow-mods: the walk
// runs inside a pinned worker's epoch like Datapath.Process.
func (d *Datapath) Trace(p *pkt.Packet) *TraceResult {
	w := d.pinGet()
	w.Enter()
	defer func() { w.Exit(); d.pinPut(w) }()

	sn := d.snap.Load()
	res := &TraceResult{
		InPort:      p.InPort,
		ParserLayer: sn.parserLayer,
		Generation:  sn.gen,
		Armed:       sn.armed,
		CacheKey:    sn.keyMask.String(),
		Unarmed:     d.unarmedWhy(sn),
	}

	pkt.ParseTo(p, sn.parserLayer)
	res.Headers = p.Headers
	res.FlowHash = p.FlowHash()
	var k flowKey // the key before the walk rewrites the packet
	k.load(p, &sn.keyMask)

	d.recordBurst(new(burstScratch), sn, p, &res.Verdict, &res.Steps)
	if res.Armed {
		var walk stageWalk
		for i := range res.Steps {
			walk.visit(res.Steps[i].bucket)
		}
		stages := walk.stages()
		res.Revalidated = len(sn.mods)
		if i := sn.newestStale(&stages, &k, &sn.keyMask); i >= 0 {
			res.Revalidated = len(sn.mods) - 1 - i
			res.Stale = &TraceStaleMod{
				Generation: sn.gen - uint64(res.Revalidated),
				Table:      sn.mods[i].table,
				Barrier:    sn.mods[i].barrier,
			}
		}
	}
	return res
}

// String renders the trace as a multi-line ofproto/trace-style explanation.
func (r *TraceResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: in_port=%d parsed=%s flow_hash=0x%08x gen=%d\n",
		r.InPort, r.ParserLayer, r.FlowHash, r.Generation)
	h := &r.Headers
	fmt.Fprintf(&sb, "  packet: eth %s > %s type=0x%04x", h.EthSrc, h.EthDst, h.EthType)
	if h.Has(pkt.ProtoIPv4) {
		fmt.Fprintf(&sb, " ip %s > %s proto=%d ttl=%d", h.IPSrc, h.IPDst, h.IPProto, h.IPTTL)
	}
	if h.Has(pkt.ProtoTCP) || h.Has(pkt.ProtoUDP) || h.Has(pkt.ProtoSCTP) {
		fmt.Fprintf(&sb, " l4 %d > %d", h.L4Src, h.L4Dst)
	}
	sb.WriteByte('\n')
	for _, s := range r.Steps {
		fmt.Fprintf(&sb, "  table %d (%s, %d entries): ", s.Table, s.Template, s.Entries)
		if !s.Matched {
			sb.WriteString("miss\n")
			continue
		}
		fmt.Fprintf(&sb, "match priority=%d,%s actions=%s", s.Priority, s.Match, s.Apply)
		if s.HasNext {
			fmt.Fprintf(&sb, " goto=%d", s.Next)
		}
		sb.WriteByte('\n')
	}
	v := &r.Verdict
	switch {
	case v.Forwarded() && v.ToController:
		fmt.Fprintf(&sb, "  verdict: output %v + punt to controller (%s at table %d)\n", v.OutPorts, v.PuntReason, v.PuntTable)
	case v.Forwarded():
		fmt.Fprintf(&sb, "  verdict: output %v\n", v.OutPorts)
	case v.ToController:
		fmt.Fprintf(&sb, "  verdict: punt to controller (%s at table %d)\n", v.PuntReason, v.PuntTable)
	default:
		fmt.Fprintf(&sb, "  verdict: drop (table_miss=%v)\n", v.TableMiss)
	}
	if !r.Armed {
		fmt.Fprintf(&sb, "  cache: not armed (%s)", r.Unarmed)
		if r.CacheKey != "" {
			fmt.Fprintf(&sb, ", key: %s", r.CacheKey)
		}
		sb.WriteByte('\n')
		return sb.String()
	}
	fmt.Fprintf(&sb, "  cache: armed, key: %s", r.CacheKey)
	if r.Revalidated > 0 {
		fmt.Fprintf(&sb, "; revalidated against %d mods", r.Revalidated)
	}
	switch st := r.Stale; {
	case st == nil:
	case st.Barrier:
		fmt.Fprintf(&sb, "; stale: barrier mod gen %d", st.Generation)
	default:
		fmt.Fprintf(&sb, "; stale: overlaps mod gen %d in table %d", st.Generation, st.Table)
	}
	sb.WriteByte('\n')
	return sb.String()
}
