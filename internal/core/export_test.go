package core

// NumSharedActionSets returns the number of distinct interned instructions.
func (d *Datapath) NumSharedActionSets() int { return len(d.insCache) }
