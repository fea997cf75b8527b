// Package exacthash implements the collision-free exact-match hash table
// behind the paper's compound-hash flow-table template (§3.1, Fig. 4): keys
// are fixed-size packed field tuples, lookups touch a bounded number of
// buckets (two), and the structure is rebuilt with a fresh seed when an
// insertion cannot be placed — trading build time and memory for constant,
// predictable lookup time exactly as the paper describes.
//
// The implementation is a bucketized cuckoo hash with two buckets per key and
// four slots per bucket, which bounds every lookup to two cache lines.  A key
// is hashed by one seeded multiply fold (Key.hash); the two bucket hashes are
// the two 32-bit halves of its result.  An insert whose two buckets are full
// displaces an entry from the bucket it did not just leave, rotating the
// victim slot with the kick count, so an evicted entry never bounces back
// into the bucket that evicted it.
package exacthash

import (
	"fmt"
	"math/bits"
)

// Key is a packed match key: up to four 64-bit words holding the masked field
// values the compound-hash template concatenates ("runs together relevant
// header fields into a single key").
type Key struct {
	W0, W1, W2, W3 uint64
}

// hash folds the key into one 64-bit value: each word is XORed with the seed
// and multiplied by its own odd constant (the four products are independent,
// so they issue in parallel), the products are XORed together, and one mix64
// finalizer avalanches the result.  The seed passes through every multiply,
// so a re-seed changes which keys collide.  (The one exception is bit 63: a
// product's top bit depends on the word's top bit alone, so keys differing
// only in the top bits of an even number of words share a hash under every
// seed.  Such a class holds at most eight keys, which fit the two buckets
// they share.)  The two bucket hashes are the result and its 32-bit
// rotation: bucket indices come from its low and its high half.
func (k Key) hash(seed uint64) (uint64, uint64) {
	h := mix64((k.W0^seed)*0x9e3779b97f4a7c15 ^
		(k.W1^seed)*0xc2b2ae3d27d4eb4f ^
		(k.W2^seed)*0x165667b19e3779f9 ^
		(k.W3^seed)*0xd6e8feb86659fd93)
	return h, bits.RotateLeft64(h, 32)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const bucketSlots = 4

type slot struct {
	key   Key
	value uint32
	used  bool
}

type bucket struct {
	slots [bucketSlots]slot
}

// Table is an exact-match hash from Key to a 32-bit value.  The zero value is
// not usable; use New.
type Table struct {
	buckets []bucket
	mask    uint64
	seed    uint64
	count   int
	// rebuilds counts how many times the table was rebuilt with a new
	// seed or grown; the update-cost experiments report it.
	rebuilds int
}

// New returns an empty table pre-sized for the given number of entries.
func New(sizeHint int) *Table {
	t := &Table{seed: 0x2545f4914f6cdd1d}
	t.init(capacityFor(sizeHint))
	return t
}

func capacityFor(n int) int {
	if n < 4 {
		n = 4
	}
	// Aim for ≤50% load factor across buckets of 4 slots.
	buckets := 1 << bits.Len(uint(n/(bucketSlots/2)))
	if buckets < 4 {
		buckets = 4
	}
	return buckets
}

func (t *Table) init(buckets int) {
	t.buckets = make([]bucket, buckets)
	t.mask = uint64(buckets - 1)
	t.count = 0
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Clone returns a deep copy of the table (buckets are value types, so one
// slice copy captures the whole lookup state).  The ESWITCH update path
// mirrors a live compound-hash template through Clone so flow-mods can be
// applied off to the side and swapped in atomically.
func (t *Table) Clone() *Table {
	return &Table{
		buckets:  append([]bucket(nil), t.buckets...),
		mask:     t.mask,
		seed:     t.seed,
		count:    t.count,
		rebuilds: t.rebuilds,
	}
}

// NumBuckets returns the number of buckets; the cost model sizes the
// structure's working set from it.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// Rebuilds returns how many times the table has been rebuilt (grown or
// re-seeded); the paper notes the hash template is rebuilt periodically to
// keep lookups collision free.
func (t *Table) Rebuilds() int { return t.rebuilds }

// Lookup returns the value stored for the key.
func (t *Table) Lookup(k Key) (uint32, bool) {
	h1, h2 := k.hash(t.seed)
	return t.lookupHashed(k, h1, h2)
}

// lookupHashed probes the two candidate buckets for a pre-hashed key.
func (t *Table) lookupHashed(k Key, h1, h2 uint64) (uint32, bool) {
	b1 := &t.buckets[h1&t.mask]
	for i := range b1.slots {
		if b1.slots[i].used && b1.slots[i].key == k {
			return b1.slots[i].value, true
		}
	}
	b2 := &t.buckets[h2&t.mask]
	for i := range b2.slots {
		if b2.slots[i].used && b2.slots[i].key == k {
			return b2.slots[i].value, true
		}
	}
	return 0, false
}

// BatchChunk bounds the scratch LookupBatch hashes into; larger batches are
// processed in chunks.
const BatchChunk = 64

// BatchScratch is the hash staging area of the batched lookup paths.
// Callers own it (one per worker, reused across bursts) so the batch path
// never zero-initializes scratch on the hot path.
type BatchScratch struct {
	H1, H2 [BatchChunk]uint64
}

// Hash returns the two bucket hashes of a key under the table's current
// seed.  Burst-mode callers hash every key of a burst up front — while the
// freshly packed key is still in registers — and then probe with
// LookupPrehashed, so the dependent bucket loads issue back to back and
// their cache misses overlap (the software-pipelining trick of burst-mode
// dataplanes).
func (t *Table) Hash(k Key) (h1, h2 uint64) { return k.hash(t.seed) }

// LookupPrehashed is Lookup for a key whose bucket hashes were already
// computed with Hash under the same seed.
func (t *Table) LookupPrehashed(k Key, h1, h2 uint64) (uint32, bool) {
	return t.lookupHashed(k, h1, h2)
}

// LookupBatch looks up a batch of keys, writing the result for keys[i] to
// values[i] and hits[i] (all three slices must have equal length): the
// hashes of a whole chunk are computed before any bucket is probed.
func (t *Table) LookupBatch(keys []Key, values []uint32, hits []bool, sc *BatchScratch) {
	for base := 0; base < len(keys); base += BatchChunk {
		n := len(keys) - base
		if n > BatchChunk {
			n = BatchChunk
		}
		for i := 0; i < n; i++ {
			sc.H1[i], sc.H2[i] = keys[base+i].hash(t.seed)
		}
		for i := 0; i < n; i++ {
			values[base+i], hits[base+i] = t.lookupHashed(keys[base+i], sc.H1[i], sc.H2[i])
		}
	}
}

// Insert adds or replaces the value stored for the key.
func (t *Table) Insert(k Key, value uint32) {
	if t.update(k, value) {
		return
	}
	pending := slot{key: k, value: value, used: true}
	leftover, ok := t.place(pending)
	if ok {
		t.count++
		return
	}
	// Cuckoo path exhausted: rebuild into a larger, re-seeded table,
	// carrying along the entry that could not be placed.
	t.rebuild([]slot{leftover}, len(t.buckets)*2)
}

// update replaces the value if the key is already present.
func (t *Table) update(k Key, value uint32) bool {
	h1, h2 := k.hash(t.seed)
	for _, h := range [2]uint64{h1, h2} {
		b := &t.buckets[h&t.mask]
		for i := range b.slots {
			if b.slots[i].used && b.slots[i].key == k {
				b.slots[i].value = value
				return true
			}
		}
	}
	return false
}

const maxKicks = 64

// place stores the slot using cuckoo displacement.  On success it reports
// true.  On failure it returns the entry that ended up without a home (which
// is generally not the entry passed in — displacement may have evicted an
// older one) so the caller can rebuild without losing it.
func (t *Table) place(cur slot) (slot, bool) {
	from := ^uint64(0) // the bucket cur was just evicted from; none yet
	for kick := 0; kick < maxKicks; kick++ {
		h1, h2 := cur.key.hash(t.seed)
		b1, b2 := h1&t.mask, h2&t.mask
		for _, bi := range [2]uint64{b1, b2} {
			b := &t.buckets[bi]
			for i := range b.slots {
				if !b.slots[i].used {
					b.slots[i] = cur
					return slot{}, true
				}
			}
		}
		// Both buckets full: evict from the bucket cur did not just
		// leave, or the victim — often at home in that same bucket —
		// would evict cur's evictor in turn and the walk would bounce
		// inside one bucket.  The victim slot starts at hash bits no
		// bucket index uses and rotates with the kick count.
		to := b1
		if to == from {
			to = b2
		}
		b := &t.buckets[to]
		victim := (int(h1>>62) + kick) % bucketSlots
		cur, b.slots[victim] = b.slots[victim], cur
		from = to
	}
	return cur, false
}

// rebuild re-creates the table with at least minBuckets buckets and a fresh
// seed, re-inserting every stored entry plus the extra (homeless) ones.  It
// keeps doubling until every entry places, so the table stays collision
// bounded.
func (t *Table) rebuild(extra []slot, minBuckets int) {
	all := append([]slot(nil), extra...)
	for bi := range t.buckets {
		for si := range t.buckets[bi].slots {
			if s := t.buckets[bi].slots[si]; s.used {
				all = append(all, s)
			}
		}
	}
	buckets := minBuckets
	if buckets < 4 {
		buckets = 4
	}
	for {
		t.rebuilds++
		t.seed = mix64(t.seed + uint64(t.rebuilds)*0x9e3779b97f4a7c15)
		t.init(buckets)
		ok := true
		for _, s := range all {
			if _, placed := t.place(s); !placed {
				ok = false
				break
			}
		}
		if ok {
			t.count = len(all)
			return
		}
		buckets *= 2
	}
}

// Delete removes the key, reporting whether it was present.
func (t *Table) Delete(k Key) bool {
	h1, h2 := k.hash(t.seed)
	for _, h := range [2]uint64{h1, h2} {
		b := &t.buckets[h&t.mask]
		for i := range b.slots {
			if b.slots[i].used && b.slots[i].key == k {
				b.slots[i] = slot{}
				t.count--
				return true
			}
		}
	}
	return false
}

// ForEach calls fn for every stored entry; iteration order is unspecified.
func (t *Table) ForEach(fn func(Key, uint32)) {
	for bi := range t.buckets {
		for si := range t.buckets[bi].slots {
			s := &t.buckets[bi].slots[si]
			if s.used {
				fn(s.key, s.value)
			}
		}
	}
}

// MemoryFootprint returns the approximate size in bytes of the lookup
// structure; the cache-hierarchy model uses it as the working-set size.
func (t *Table) MemoryFootprint() int {
	return len(t.buckets) * bucketSlots * (32 + 8)
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("exacthash{entries=%d buckets=%d rebuilds=%d}", t.count, len(t.buckets), t.rebuilds)
}
