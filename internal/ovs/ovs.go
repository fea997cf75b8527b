// Package ovs implements the flow-caching OpenFlow software switch baseline
// the paper compares ESWITCH against (§2.2): a faithful re-implementation of
// the Open vSwitch datapath hierarchy —
//
//   - a microflow cache: an exact-match store keyed by the full packet
//     header tuple, serving the most recently seen transport connections;
//   - a megaflow cache: a tuple-space-search store of masked entries computed
//     reactively by the slow path, bundling microflows into aggregates;
//   - the slow path ("vswitchd"): full priority-ordered classification over
//     the OpenFlow pipeline, reached through an upcall when both caches miss,
//     which computes the megaflow mask (every field examined during
//     classification, whether it matched or not, is un-wildcarded) and
//     installs the resulting megaflow;
//   - whole-cache invalidation on any flow-table update (the brute-force
//     strategy the paper attributes to OVS).
//
// The implementation is deliberately architecture-faithful rather than
// line-by-line faithful: the paper's arguments are about the flow-caching
// architecture (locality assumptions, unpredictable megaflow generation,
// cache-management complexity), all of which this package reproduces.
package ovs

import (
	"fmt"
	"sync"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/tss"
)

// Options configure the baseline switch.
type Options struct {
	// MicroflowLimit caps the exact-match cache (OVS EMC is ~8K entries
	// per core; the default is deliberately generous).
	MicroflowLimit int
	// MegaflowLimit caps the megaflow cache (OVS defaults to 200 000).
	MegaflowLimit int
	// ConservativeTransportMask un-wildcards the transport ports into
	// every megaflow generated for a packet that carries a transport
	// header, reproducing the per-transport-flow megaflow growth the paper
	// measures on OVS (Figs. 13–16): as the active flow set grows, so does
	// the megaflow cache, until it thrashes and traffic falls back to the
	// slow path.  Disable for the idealized minimal-mask variant.
	ConservativeTransportMask bool
	// Meter, when non-nil, receives cycle and memory-access accounting.
	Meter *cpumodel.Meter
}

// DefaultOptions returns OVS-like defaults.
func DefaultOptions() Options {
	return Options{
		MicroflowLimit:            8192,
		MegaflowLimit:             200000,
		ConservativeTransportMask: true,
	}
}

// LevelStats counts, per datapath level, how many packets were served there
// (the data behind Fig. 14).
type LevelStats struct {
	Microflow uint64
	Megaflow  uint64
	SlowPath  uint64
	// Upcalls equals SlowPath but is kept separately for clarity in
	// reports (every slow-path packet is an upcall).
	Upcalls uint64
	// Invalidations counts whole-cache flushes caused by updates.
	Invalidations uint64
}

// Total returns the number of packets processed.
func (s LevelStats) Total() uint64 { return s.Microflow + s.Megaflow + s.SlowPath }

// microKey is the exact-match key of the microflow cache: the full relevant
// header tuple, so any header change (different source port, different
// ToS, ...) misses the cache — exactly the property the paper calls out.
type microKey struct {
	inPort  uint32
	ethDst  uint64
	ethSrc  uint64
	ethType uint16
	vlan    uint16
	ipSrc   uint32
	ipDst   uint32
	ipProto uint8
	ipDSCP  uint8
	l4Src   uint16
	l4Dst   uint16
}

// megaflow is one megaflow cache entry: a masked match plus the cached
// actions that reproduce the slow path's decision for every packet the mask
// covers.
type megaflow struct {
	match   *openflow.Match
	actions openflow.ActionList
	// seq numbers the megaflows in insertion order; eviction takes the
	// oldest.
	seq uint64
	// puntReason and puntTable are the slow path's punt attribution, which
	// the cached actions cannot carry; hits replay them.
	puntReason openflow.PuntReason
	puntTable  openflow.TableID
}

// Switch is the flow-caching baseline switch.
type Switch struct {
	opts     Options
	pipeline *openflow.Pipeline
	meter    *cpumodel.Meter

	mu    sync.RWMutex
	micro map[microKey]*megaflow
	// microRing holds the microflow keys in insertion order, up to
	// MicroflowLimit of them; once it is full, microNext is the slot of the
	// oldest key, which the next insertion evicts.
	microRing []microKey
	microNext int
	mega      *tss.Classifier
	megaSeq   uint64 // the seq of the next megaflow inserted
	// slowClassifiers are per-table tuple-space classifiers the slow path
	// uses for large tables (vswitchd's own classifier is a TSS); they are
	// rebuilt lazily after updates.
	slowClassifiers map[openflow.TableID]*tss.Classifier

	stats LevelStats

	microRegion *cpumodel.Region
	megaRegion  *cpumodel.Region
	slowRegion  *cpumodel.Region
}

// New builds a baseline switch over the pipeline.
func New(pl *openflow.Pipeline, opts Options) (*Switch, error) {
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("ovs: invalid pipeline: %w", err)
	}
	if opts.MicroflowLimit <= 0 {
		opts.MicroflowLimit = DefaultOptions().MicroflowLimit
	}
	if opts.MegaflowLimit <= 0 {
		opts.MegaflowLimit = DefaultOptions().MegaflowLimit
	}
	s := &Switch{
		opts:            opts,
		pipeline:        pl.Clone(),
		meter:           opts.Meter,
		micro:           make(map[microKey]*megaflow),
		mega:            tss.NewDisjoint(),
		slowClassifiers: make(map[openflow.TableID]*tss.Classifier),
	}
	s.microRegion = s.meter.NewRegion("ovs-microflow", opts.MicroflowLimit*64)
	s.megaRegion = s.meter.NewRegion("ovs-megaflow", 16<<20)
	s.slowRegion = s.meter.NewRegion("ovs-vswitchd", 32<<20)
	return s, nil
}

// Stats returns the per-level packet counters.
func (s *Switch) Stats() LevelStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// MegaflowEntries returns a snapshot of the megaflow cache matches; the Fig. 3
// experiment inspects it.
func (s *Switch) MegaflowEntries() []*openflow.Match {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := s.mega.Entries()
	out := make([]*openflow.Match, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Match.Clone())
	}
	return out
}

// ResetStats clears the per-level counters (cache contents are kept).
func (s *Switch) ResetStats() {
	s.mu.Lock()
	s.stats = LevelStats{}
	s.mu.Unlock()
}

// makeMicroKey extracts the exact-match key from a parsed packet.
func makeMicroKey(p *pkt.Packet) microKey {
	h := &p.Headers
	return microKey{
		inPort:  p.InPort,
		ethDst:  h.EthDst.Uint64(),
		ethSrc:  h.EthSrc.Uint64(),
		ethType: h.EthType,
		vlan:    h.VLANID,
		ipSrc:   uint32(h.IPSrc),
		ipDst:   uint32(h.IPDst),
		ipProto: h.IPProto,
		ipDSCP:  h.IPDSCP,
		l4Src:   h.L4Src,
		l4Dst:   h.L4Dst,
	}
}

func (k microKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(k.inPort))
	mix(k.ethDst)
	mix(k.ethSrc)
	mix(uint64(k.ethType)<<16 | uint64(k.vlan))
	mix(uint64(k.ipSrc)<<32 | uint64(k.ipDst))
	mix(uint64(k.ipProto)<<24 | uint64(k.ipDSCP)<<16 | uint64(k.l4Src))
	mix(uint64(k.l4Dst))
	return h
}

// Process sends one packet through the cache hierarchy, filling in the
// verdict.
func (s *Switch) Process(p *pkt.Packet, v *openflow.Verdict) {
	s.mu.Lock()
	s.process(p, v)
	s.mu.Unlock()
}

// ProcessUnlocked is Process without locking, for single-threaded harnesses.
func (s *Switch) ProcessUnlocked(p *pkt.Packet, v *openflow.Verdict) {
	s.process(p, v)
}

func (s *Switch) process(p *pkt.Packet, v *openflow.Verdict) {
	m := s.meter
	v.Reset()
	m.StartPacket()
	m.AddCycles(cpumodel.CostPktIO)

	// OVS always extracts the full flow key (combined L2–L4 parse).
	pkt.ParseL4(p)
	m.AddCycles(cpumodel.CostParser)

	// Level 1: microflow cache.
	key := makeMicroKey(p)
	m.AddCycles(cpumodel.CostMicroflowFixed)
	m.RegionAccess(s.microRegion, key.hash())
	if mf, ok := s.micro[key]; ok {
		s.stats.Microflow++
		openflow.ApplyActions(mf.actions, p, v, s.pipeline.NumPorts)
		v.NotePunt(mf.puntReason, mf.puntTable)
		m.AddCycles(cpumodel.CostActions + cpumodel.CostPktIO)
		return
	}

	// Level 2: megaflow cache (tuple space search).  Each probed tuple
	// touches the tuple's hash bucket; a hit additionally touches the
	// megaflow entry and its cached action set, and triggers a microflow
	// insertion (the EMC update OVS performs on every megaflow hit).
	res := s.mega.Lookup(p, nil)
	m.AddCycles(cpumodel.CostMegaflowPerGroup * maxInt(res.GroupsProbed, 1))
	for g := 0; g < maxInt(res.GroupsProbed, 1); g++ {
		m.RegionAccess(s.megaRegion, uint64(g)<<14^key.hash()^uint64(p.Headers.IPDst))
	}
	if res.Entry != nil {
		s.stats.Megaflow++
		mf := res.Entry.Aux.(*megaflow)
		m.RegionAccess(s.megaRegion, key.hash()*2654435761%uint64(16<<20))
		m.RegionAccess(s.megaRegion, (key.hash()^0x5bd1e995)*0x9e3779b97f4a7c15%uint64(16<<20))
		m.AddCycles(cpumodel.CostMicroflowFixed)
		m.RegionAccess(s.microRegion, key.hash())
		s.insertMicro(key, mf)
		openflow.ApplyActions(mf.actions, p, v, s.pipeline.NumPorts)
		v.NotePunt(mf.puntReason, mf.puntTable)
		m.AddCycles(cpumodel.CostActions + cpumodel.CostPktIO)
		return
	}

	// Level 3: upcall to the slow path.
	s.stats.SlowPath++
	s.stats.Upcalls++
	m.AddCycles(cpumodel.CostUpcall)
	mf := s.slowPath(p, v)
	if mf != nil {
		s.insertMega(mf)
		s.insertMicro(key, mf)
	}
	m.AddCycles(cpumodel.CostActions + cpumodel.CostPktIO)
}

// insertMicro caches a key that missed the microflow cache, evicting the
// oldest key when the cache is full, so two runs of one trace agree.
func (s *Switch) insertMicro(key microKey, mf *megaflow) {
	if len(s.microRing) < s.opts.MicroflowLimit {
		s.microRing = append(s.microRing, key)
	} else {
		delete(s.micro, s.microRing[s.microNext])
		s.microRing[s.microNext] = key
		s.microNext = (s.microNext + 1) % len(s.microRing)
	}
	s.micro[key] = mf
}

func (s *Switch) insertMega(mf *megaflow) {
	if n := s.mega.Len(); n >= s.opts.MegaflowLimit {
		// Cache overflow: evict the oldest tenth (a coarse stand-in for
		// OVS's flow eviction), keeping the newest megaflows.
		oldest := s.megaSeq - uint64(n-s.opts.MegaflowLimit/10)
		s.mega.DeleteWhere(func(e *tss.Entry) bool { return e.Aux.(*megaflow).seq < oldest })
	}
	mf.seq = s.megaSeq
	s.megaSeq++
	s.mega.Insert(&tss.Entry{Priority: 0, Match: mf.match, Aux: mf})
}

// invalidateLocked flushes both cache levels; every flow-table modification
// calls it (the paper: "OVS adopts the brute-force strategy to invalidate the
// entire cache after essentially all changes").
func (s *Switch) invalidateLocked() {
	s.micro = make(map[microKey]*megaflow)
	s.microRing, s.microNext = s.microRing[:0], 0
	s.mega.Clear()
	s.megaSeq = 0
	s.slowClassifiers = make(map[openflow.TableID]*tss.Classifier)
	s.stats.Invalidations++
}

// AddFlow installs a flow entry into the slow-path pipeline and invalidates
// the caches.
func (s *Switch) AddFlow(tableID openflow.TableID, e *openflow.FlowEntry) error {
	s.mu.Lock()
	t := s.pipeline.Table(tableID)
	if t == nil {
		t = s.pipeline.AddTable(tableID)
	}
	if e.Instructions.HasGoto && s.pipeline.Table(e.Instructions.GotoTable) == nil {
		s.pipeline.AddTable(e.Instructions.GotoTable)
	}
	t.Add(e)
	s.invalidateLocked()
	s.mu.Unlock()
	return nil
}

// DeleteFlow removes matching flow entries and invalidates the caches.
func (s *Switch) DeleteFlow(tableID openflow.TableID, match *openflow.Match, priority int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.pipeline.Table(tableID)
	if t == nil {
		return 0, fmt.Errorf("ovs: table %d does not exist", tableID)
	}
	removed := t.Delete(match, priority)
	if removed > 0 {
		s.invalidateLocked()
	}
	return removed, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
