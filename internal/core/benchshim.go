package core

// The frozen benchmark's shim: bench/ may only change in a [benchmark] PR and
// still names core.Options.Megaflow (embedded into Options from here),
// core.MegaflowStats{Hits,Misses} and (*Datapath).MegaflowStats().  All three
// are inert — the megaflow level is gone (flowcache.go) — and have no other
// caller; ROADMAP item 1 deletes this file with its bench/ edit.
type benchShim struct{ Megaflow int }

type MegaflowStats struct{ Hits, Misses uint64 }

func (d *Datapath) MegaflowStats() MegaflowStats { return MegaflowStats{} }
