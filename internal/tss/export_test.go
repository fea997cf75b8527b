package tss

import "eswitch/internal/openflow"

// NumGroups returns the number of tuples (distinct mask sets); it determines
// the per-lookup cost, which is why the paper calls this the slowest
// template.
func (c *Classifier) NumGroups() int { return len(c.groups) }

// Delete removes the entry with an equal match (and equal priority when
// priority >= 0), reporting whether one was removed.
func (c *Classifier) Delete(m *openflow.Match, priority int) bool {
	sig, _, _ := signatureOf(m)
	g, ok := c.bysig[sig]
	if !ok {
		return false
	}
	key := keyOfMatch(g, m)
	list := g.entries[key]
	for i, e := range list {
		if e.Match.Equal(m) && (priority < 0 || e.Priority == priority) {
			g.entries[key] = append(list[:i], list[i+1:]...)
			if len(g.entries[key]) == 0 {
				delete(g.entries, key)
			}
			c.count--
			if len(g.entries) == 0 {
				c.removeGroup(g)
			} else {
				g.recomputeMaxPrio()
			}
			c.resort()
			return true
		}
	}
	return false
}
