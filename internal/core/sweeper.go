package core

import (
	"time"

	"eswitch/internal/openflow"
)

// This file implements the flow lifecycle plane: lazy expiry of flow entries
// carrying idle/hard timeouts, plus a soft-limit LRU-approximate eviction
// policy layered under the MaxTableEntries hard cap.  Everything here runs on
// a per-datapath sweeper goroutine, entirely off the hot path — the
// forwarding workers never check timestamps, never take locks, and never even
// know the sweeper exists.  Expiry observes activity through the per-entry
// packet counters the datapath already maintains (when Options.UpdateCounters
// is on); with counters off, idle timeouts degrade to expiry-from-install
// (documented on SweeperConfig).
//
// Removal reuses the ordinary update path (DeleteFlow), so an expiry is a
// generation-bumping, epoch-synchronized table transition exactly like a
// controller-initiated delete — the caches invalidate themselves, and no new
// synchronization is introduced.

// Flow-removal reasons reported to the sweeper's OnRemoved callback.  The
// values deliberately equal ofp's FlowRemoved* wire reasons so protocol
// layers can forward them unmapped (ofp is not imported here to keep core
// protocol-free).
const (
	// RemovedIdleTimeout: no matching packet for IdleTimeout seconds.
	RemovedIdleTimeout uint8 = 0
	// RemovedHardTimeout: HardTimeout seconds since installation.
	RemovedHardTimeout uint8 = 1
	// RemovedDelete: explicit controller delete (not emitted by the sweeper;
	// defined for layers that announce deletes through the same channel).
	RemovedDelete uint8 = 2
	// RemovedEviction: evicted by the soft-limit policy to reclaim space.
	RemovedEviction uint8 = 3
)

// RemovedFlow describes one entry the lifecycle plane removed.
type RemovedFlow struct {
	Table       openflow.TableID
	Priority    int
	Match       *openflow.Match
	Reason      uint8
	IdleTimeout uint16
	HardTimeout uint16
	// Duration is how long the entry was installed (as observed by the
	// sweeper; accurate to one sweep interval).
	Duration time.Duration
	// Packets/Bytes are the entry's final counters (zero with
	// Options.UpdateCounters off).
	Packets, Bytes uint64
}

// SweeperConfig configures a lifecycle sweeper.
type SweeperConfig struct {
	// Interval between sweeps; Run uses it (SweepOnce ignores it).
	// Defaults to one second.
	Interval time.Duration
	// SoftLimit, when positive, is the per-table entry count above which the
	// sweeper evicts least-recently-active entries down to the limit
	// (LRU-approximate: activity is observed at sweep granularity through
	// the entry counters).  It is a soft companion to the
	// Options.MaxTableEntries hard cap: the hard cap rejects FlowMods, the
	// soft limit frees space before that happens.  Zero disables eviction.
	SoftLimit int
	// Now is the clock (injectable for tests).  Defaults to time.Now.
	Now func() time.Time
	// OnRemoved, when non-nil, is called (from the sweeper goroutine, after
	// the entry is gone from the datapath) for every removal — the hook the
	// slow-path service uses to emit ofp.FlowRemoved to the controller.
	OnRemoved func(RemovedFlow)
}

// flowState is the sweeper's per-entry bookkeeping.  Keyed by the entry
// pointer: a FlowMod that replaces an entry installs a fresh *FlowEntry, so
// replacement naturally resets the lifecycle clock.
type flowState struct {
	table       openflow.TableID
	installedAt time.Time
	lastActive  time.Time
	lastPackets uint64
}

// Sweeper drives lazy flow expiry for one datapath.
type Sweeper struct {
	d     *Datapath
	cfg   SweeperConfig
	state map[*openflow.FlowEntry]*flowState
}

// NewSweeper returns a sweeper for the datapath.  Nothing runs until Run (or
// SweepOnce) is called.
func NewSweeper(d *Datapath, cfg SweeperConfig) *Sweeper {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Sweeper{d: d, cfg: cfg, state: make(map[*openflow.FlowEntry]*flowState)}
}

// Interval returns the effective sweep interval (after defaulting).
func (s *Sweeper) Interval() time.Duration { return s.cfg.Interval }

// candidate is one entry scheduled for removal in the current sweep.
type candidate struct {
	entry  *openflow.FlowEntry
	table  openflow.TableID
	reason uint8
}

// SweepOnce scans the pipeline once, removes every expired entry (and, with a
// soft limit configured, evicts down to it), and returns the number removed.
// It is the sweeper's whole tick, callable directly from tests.
func (s *Sweeper) SweepOnce() int {
	now := s.cfg.Now()
	return s.remove(s.observe(now), now)
}

// observe is a sweep's first phase, under the update mutex: it refreshes
// per-entry activity from the counters and returns the expiry and eviction
// candidates.  No table is mutated here; remove deletes them through the
// ordinary update path.
func (s *Sweeper) observe(now time.Time) []candidate {
	// Fold the deltas parked in the pinned workers first: traffic through
	// the facade's ProcessBurst would otherwise look idle.
	s.d.flushPinnedCounters()

	s.d.mu.Lock()
	var cands []candidate
	seen := 0
	for _, t := range s.d.source.Tables() {
		over := 0
		if s.cfg.SoftLimit > 0 && t.Len() > s.cfg.SoftLimit {
			over = t.Len() - s.cfg.SoftLimit
		}
		candsBefore := len(cands)
		var evictable []*openflow.FlowEntry
		for _, e := range t.Entries() {
			seen++
			st := s.state[e]
			if st == nil {
				st = &flowState{table: t.ID, installedAt: now, lastActive: now}
				s.state[e] = st
			}
			if pkts := e.Counters.Packets.Load(); pkts != st.lastPackets {
				st.lastPackets = pkts
				st.lastActive = now
			}
			if hard := e.HardTimeout; hard != 0 && now.Sub(st.installedAt) >= time.Duration(hard)*time.Second {
				cands = append(cands, candidate{entry: e, table: t.ID, reason: RemovedHardTimeout})
				continue
			}
			if idle := e.IdleTimeout; idle != 0 && now.Sub(st.lastActive) >= time.Duration(idle)*time.Second {
				cands = append(cands, candidate{entry: e, table: t.ID, reason: RemovedIdleTimeout})
				continue
			}
			if over > 0 {
				evictable = append(evictable, e)
			}
		}
		// Soft-limit eviction: the table is over its soft cap even after
		// this sweep's expiries, so evict the least-recently-active
		// survivors down to it.
		over -= len(cands) - candsBefore // expiries already freed these slots
		for i := 0; i < over && len(evictable) > 0; i++ {
			oldest := 0
			for j := 1; j < len(evictable); j++ {
				if s.state[evictable[j]].lastActive.Before(s.state[evictable[oldest]].lastActive) {
					oldest = j
				}
			}
			e := evictable[oldest]
			evictable[oldest] = evictable[len(evictable)-1]
			evictable = evictable[:len(evictable)-1]
			cands = append(cands, candidate{entry: e, table: t.ID, reason: RemovedEviction})
		}
	}
	s.d.mu.Unlock()

	// Garbage-collect state for entries that vanished between sweeps
	// (controller deletes, pipeline reinstalls) once the map has visibly
	// outgrown the live entry set.
	if len(s.state) > 2*seen+len(cands)+16 {
		s.gc()
	}
	return cands
}

// remove is a sweep's second phase: it deletes the candidates through the
// ordinary update path, so each removal is a generation-bumping table
// transition and every cached verdict derived from the expired entry is
// invalidated exactly as for a controller delete.  The mutex was released
// after observe, so a FlowMod may have replaced a candidate meanwhile: only
// the candidate entry itself is deleted, never a fresh replacement under
// its key.  The announce callback runs after the entry is gone.
func (s *Sweeper) remove(cands []candidate, now time.Time) int {
	removed := 0
	for _, c := range cands {
		n, err := s.d.deleteFlow(c.table, c.entry.Match, c.entry.Priority, c.entry)
		st := s.state[c.entry]
		delete(s.state, c.entry)
		if err != nil || n == 0 {
			continue
		}
		removed++
		if s.cfg.OnRemoved != nil {
			rf := RemovedFlow{
				Table:       c.table,
				Priority:    c.entry.Priority,
				Match:       c.entry.Match,
				Reason:      c.reason,
				IdleTimeout: c.entry.IdleTimeout,
				HardTimeout: c.entry.HardTimeout,
				Packets:     c.entry.Counters.Packets.Load(),
				Bytes:       c.entry.Counters.Bytes.Load(),
			}
			if st != nil {
				rf.Duration = now.Sub(st.installedAt)
			}
			s.cfg.OnRemoved(rf)
		}
	}
	return removed
}

// gc drops bookkeeping for entries no longer present in the pipeline.
func (s *Sweeper) gc() {
	live := make(map[*openflow.FlowEntry]bool, len(s.state))
	s.d.mu.Lock()
	for _, t := range s.d.source.Tables() {
		for _, e := range t.Entries() {
			live[e] = true
		}
	}
	s.d.mu.Unlock()
	for e := range s.state {
		if !live[e] {
			delete(s.state, e)
		}
	}
}

// Run sweeps every Interval until stop is closed.  It is the lifecycle
// plane's event loop: run it on its own goroutine per datapath.
func (s *Sweeper) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.SweepOnce()
		}
	}
}
