package exacthash

// NumBuckets returns the number of buckets.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// Rebuilds returns how many times the table has been rebuilt (grown or
// re-seeded).
func (t *Table) Rebuilds() int { return t.rebuilds }
