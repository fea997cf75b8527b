package tss

// NumGroups returns the number of tuples (distinct mask sets); it determines
// the per-lookup cost, which is why the paper calls this the slowest
// template.
func (c *Classifier) NumGroups() int { return len(c.groups) }
