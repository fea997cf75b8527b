package exacthash

// NumBuckets returns the number of buckets.
func (t *table[K, V]) NumBuckets() int { return len(t.buckets) }

// Rebuilds returns how many times the table has been rebuilt (grown or
// re-seeded).
func (t *table[K, V]) Rebuilds() int { return t.rebuilds }

// Lookup returns the value stored for the key.
func (t *Table) Lookup(k Key) (uint32, bool) {
	h1, h2 := t.Hash(k)
	return t.LookupPrehashed(k, h1, h2)
}

// LookupPrehashed is Lookup for a key whose bucket hashes were already
// computed with Hash under the same seed.
func (t *Table) LookupPrehashed(k Key, h1, h2 uint64) (uint32, bool) {
	if v := t.Map4.LookupPrehashed(k, h1, h2); v != nil {
		return *v, true
	}
	return 0, false
}

// forEach calls fn for every stored entry and its value.
func (t *Table) forEach(fn func(Key, uint32)) {
	t.Map4.forEach(func(k Key, v *uint32) { fn(k, *v) })
}
