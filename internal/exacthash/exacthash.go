// Package exacthash implements the collision-free exact-match hash table
// behind the paper's compound-hash flow-table template (§3.1, Fig. 4): keys
// are fixed-size packed field tuples, lookups touch a bounded number of
// buckets (two), and the structure is rebuilt with a fresh seed when an
// insertion cannot be placed — trading build time and memory for constant,
// predictable lookup time exactly as the paper describes.
//
// The implementation is a bucketized cuckoo hash with two buckets per key and
// four slots per bucket, which bounds every lookup to two buckets.  A key
// is hashed by one seeded multiply fold (Key.hash); the two bucket hashes are
// the two 32-bit halves of its result.  Each bucket has a tag word beside it,
// one 16-bit lane per slot, as DPDK's rte_hash keeps a signature per entry: a
// lane holds its key's tag (hash bits no bucket index reads) or zero for an
// empty slot.  A probe XORs the broadcast tag into the word, finds the zero
// lanes with one exact SWAR test and compares keys only in those, so a miss
// usually reads two tag words and no key.  An insert whose two buckets are
// full displaces an entry from the bucket it did not just leave, rotating the
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

// Tag lanes: a bucket's tag word holds one 16-bit lane per slot, lane i in
// bits 16i..16i+15.  A lane is zero when its slot is empty and the stored
// key's tag (laneTag) otherwise.
const (
	laneOnes = 0x0001000100010001 // 1 in every lane: broadcasts a tag
	laneLow  = 0x7fff7fff7fff7fff // every lane's low 15 bits
	laneHigh = 0x8000800080008000 // every lane's top bit
)

// laneTag is the 16-bit tag a key stores in its slot's lane: hash bits 16..31,
// which neither bucket index reads below 65,536 buckets (bucket 1 reads the
// low bits, bucket 2 bits 32 and up), with bit 0 forced so a stored tag is
// never the empty lane.  It comes from the first bucket hash whichever bucket
// the key lives in.
func laneTag(h1 uint64) uint64 { return (h1>>16)&0xffff | 1 }

// zeroLanes returns the top bit of every zero lane of w, exactly: the low
// 15 bits of a lane plus 0x7fff carry into its top bit iff they are not all
// zero, and no sum crosses into the next lane, so no lane borrows a false
// match from its neighbour.
func zeroLanes(w uint64) uint64 { return ^((w&laneLow + laneLow) | w) & laneHigh }

// laneSlot is the slot index of the lowest lane flagged in a zeroLanes mask.
func laneSlot(m uint64) int { return bits.TrailingZeros64(m) >> 4 & (bucketSlots - 1) }

type slot struct {
	key   Key
	value uint32
}

type bucket struct {
	slots [bucketSlots]slot
}

// Table is an exact-match hash from Key to a 32-bit value.  The zero value is
// not usable; use New.
type Table struct {
	buckets []bucket
	// tags is the buckets' tag words (tags[b] for buckets[b]) and the one
	// record of which slots are occupied.  A probe reads the word, finds the
	// lanes equal to the key's tag with one SWAR test, and compares keys only
	// in those — on a miss, usually none.
	tags  []uint64
	mask  uint64
	seed  uint64
	count int
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
	t.tags = make([]uint64, buckets)
	t.mask = uint64(buckets - 1)
	t.count = 0
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Clone returns a deep copy of the table (buckets and tag words are value
// types, so two slice copies capture the whole lookup state).  The ESWITCH
// update path mirrors a live compound-hash template through Clone so
// flow-mods can be applied off to the side and swapped in atomically.
func (t *Table) Clone() *Table {
	return &Table{
		buckets:  append([]bucket(nil), t.buckets...),
		tags:     append([]uint64(nil), t.tags...),
		mask:     t.mask,
		seed:     t.seed,
		count:    t.count,
		rebuilds: t.rebuilds,
	}
}

// Lookup returns the value stored for the key.
func (t *Table) Lookup(k Key) (uint32, bool) {
	h1, h2 := k.hash(t.seed)
	return t.lookupHashed(k, h1, h2)
}

// lookupHashed probes the two candidate buckets for a pre-hashed key.
func (t *Table) lookupHashed(k Key, h1, h2 uint64) (uint32, bool) {
	b, i := t.find(k, h1, h2)
	if i < 0 {
		return 0, false
	}
	return t.buckets[b].slots[i].value, true
}

// find locates a pre-hashed key: its bucket and slot index, or slot -1.
func (t *Table) find(k Key, h1, h2 uint64) (uint64, int) {
	tag := laneTag(h1) * laneOnes
	b := h1 & t.mask
	if i := t.slotOf(b, k, tag); i >= 0 {
		return b, i
	}
	b = h2 & t.mask
	return b, t.slotOf(b, k, tag)
}

// slotOf returns the slot of bucket b holding k, or -1: it compares keys only
// in the lanes whose tag equals the broadcast tag.
func (t *Table) slotOf(b uint64, k Key, tag uint64) int {
	for m := zeroLanes(t.tags[b] ^ tag); m != 0; m &= m - 1 {
		if i := laneSlot(m); t.buckets[b].slots[i].key == k {
			return i
		}
	}
	return -1
}

// batchChunk bounds the scratch LookupBatch hashes into; larger batches are
// processed in chunks.
const batchChunk = 64

// BatchScratch is the hash staging area of the batched lookup paths.
// Callers own it (one per worker, reused across bursts) so the batch path
// never zero-initializes scratch on the hot path.
type BatchScratch struct {
	H1, H2 [batchChunk]uint64
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
	for base := 0; base < len(keys); base += batchChunk {
		n := len(keys) - base
		if n > batchChunk {
			n = batchChunk
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
	leftover, ok := t.place(slot{key: k, value: value})
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
	b, i := t.find(k, h1, h2)
	if i < 0 {
		return false
	}
	t.buckets[b].slots[i].value = value
	return true
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
		tag := laneTag(h1)
		for _, bi := range [2]uint64{b1, b2} {
			if m := zeroLanes(t.tags[bi]); m != 0 {
				i := laneSlot(m)
				t.buckets[bi].slots[i] = cur
				t.setLane(bi, i, tag)
				return slot{}, true
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
		t.setLane(to, victim, tag)
		from = to
	}
	return cur, false
}

// setLane stores a slot's lane of bucket b's tag word: the key's tag, or 0
// to mark the slot empty.
func (t *Table) setLane(b uint64, i int, tag uint64) {
	sh := uint(i) * 16
	t.tags[b] = t.tags[b]&^(0xffff<<sh) | tag<<sh
}

// rebuild re-creates the table with at least minBuckets buckets and a fresh
// seed, re-inserting every stored entry plus the extra (homeless) ones.  It
// keeps doubling until every entry places, so the table stays collision
// bounded.
func (t *Table) rebuild(extra []slot, minBuckets int) {
	all := append([]slot(nil), extra...)
	t.forEach(func(k Key, v uint32) { all = append(all, slot{k, v}) })
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
	b, i := t.find(k, h1, h2)
	if i < 0 {
		return false
	}
	t.buckets[b].slots[i] = slot{}
	t.setLane(b, i, 0)
	t.count--
	return true
}

// forEach calls fn for every stored entry; iteration order is unspecified.
func (t *Table) forEach(fn func(Key, uint32)) {
	for bi, w := range t.tags {
		for si := range t.buckets[bi].slots {
			if w>>(16*si)&0xffff != 0 {
				s := &t.buckets[bi].slots[si]
				fn(s.key, s.value)
			}
		}
	}
}

// MemoryFootprint returns the approximate size in bytes of the lookup
// structure; the cache-hierarchy model uses it as the working-set size.  It
// counts the slots only: the tag words (8 bytes per bucket, about 5% more)
// are left out, so the model neither sizes nor charges the tag read a probe
// makes first.
func (t *Table) MemoryFootprint() int {
	return len(t.buckets) * bucketSlots * (32 + 8)
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("exacthash{entries=%d buckets=%d rebuilds=%d}", t.count, len(t.buckets), t.rebuilds)
}
