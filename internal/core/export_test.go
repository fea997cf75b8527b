package core

import "eswitch/internal/openflow"

// NumSharedActionSets returns the number of distinct interned instructions.
func (d *Datapath) NumSharedActionSets() int { return len(d.insCache) }

// DecomposedTables returns how many extra tables decomposition introduced.
func (d *Datapath) DecomposedTables() int { return d.decomposedBy }

// InstallPipeline replaces the entire running pipeline with a freshly
// compiled one: the "full reconfiguration" upper bound of an update.  The
// datapath takes pl over, as Compile does.
func (d *Datapath) InstallPipeline(pl *openflow.Pipeline) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recompile(pl)
}

// Len returns the cache capacity in entries.
func (fc *FlowCache) Len() int { return len(fc.entries) }
