// Package exacthash implements the collision-free exact-match hash table
// behind the paper's compound-hash flow-table template (§3.1, Fig. 4): keys
// are fixed-size packed field tuples, lookups touch a bounded number of
// buckets (two), and the structure is rebuilt with a fresh seed when an
// insertion cannot be placed — trading build time and memory for constant,
// predictable lookup time exactly as the paper describes.
//
// The template's key holds the stage's fields and nothing else, so the table
// comes in two key widths: one word (Map1) and four (Map4).  A slot holds
// the key and, beside it, a pointer to its value, so a one-word bucket is
// one 64-byte line and a hit reads no other store.  One generic table
// carries the update protocol for every width; each width adds only its
// hash, a concrete call its callers' probe loops inline.
//
// The table is a bucketized cuckoo hash with two buckets per key and four
// slots per bucket, which bounds every lookup to two buckets.  A key is
// hashed by one seeded multiply per word and one finalizer (Key.hash); the
// two bucket hashes are the two 32-bit halves of its result.  Each bucket
// has a tag word beside it, one 16-bit lane per slot, as DPDK's rte_hash
// keeps a signature per entry: a lane holds its key's tag (hash bits no
// bucket index reads), zero for an empty slot, or a retired marker.  A probe
// XORs the broadcast tag into the word, finds the zero lanes with one exact
// SWAR test and compares keys only in those, so a miss usually reads two tag
// words and no key.  A key goes to whichever of its two buckets has more
// empty lanes, which keeps full buckets rare.  An insert whose two buckets
// are full displaces an entry from the bucket it did not just leave,
// rotating the victim slot with the kick count, so an evicted entry never
// bounces back into the bucket that evicted it.
//
// One writer and any number of readers share one table, as with rte_hash in
// its lock-free mode.  Until Publish a table has no readers: the writer
// places keys with displacement and rebuilds in place.  From Publish on, the
// lookup methods (LookupPrehashed, Len) may run concurrently with the
// writer's Insert and Delete:
//
//   - readers load tag words and value pointers atomically;
//   - an insert writes the key and the value pointer into an empty lane and
//     then stores the tag word, so a reader that sees the tag sees both;
//   - a delete stores the retired marker in the lane and leaves the key and
//     the pointer, so a reader that loaded the old tag word still compares
//     the old key and loads its value;
//   - the next insert waits for the grace period Publish was given and then
//     empties the retired lanes and clears their pointers, so a deleted value
//     stays reachable only until the next insert;
//   - an insert whose two buckets have no empty lane fails: no entry moves
//     and the table is never rebuilt, so the caller rebuilds it off to the
//     side.
package exacthash

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Key is a packed match key: up to four 64-bit words holding the masked field
// values the compound-hash template concatenates ("runs together relevant
// header fields into a single key").  It is the four-word table's key, and
// the form in which keys of every width reach the write side: a narrower
// table keeps its leading words.
type Key struct {
	W0, W1, W2, W3 uint64
}

// Key1 is the one-word table's key: Key's W0.
type Key1 uint64

// key is the constraint of the stored key types.
type key[K any] interface {
	Key1 | Key
	// hash returns the key's two bucket hashes under seed.
	hash(seed uint64) (h1, h2 uint64)
	// of returns the words of w a key of this width holds; the receiver is
	// not read.
	of(w Key) K
}

// hash folds the key into one 64-bit value: each word is XORed with the seed
// and multiplied by its own odd constant (the products are independent, so
// they issue in parallel), the products are XORed together, and one mix64
// finalizer avalanches the result.  The seed passes through every multiply,
// so a re-seed changes which keys collide.  (The one exception is bit 63: a
// product's top bit depends on the word's top bit alone, so keys differing
// only in the top bits of an even number of words share a hash under every
// seed.  Such a class holds at most eight keys, which fit the two buckets
// they share.  A one-word hash is a bijection and has no such class.)  The
// two bucket hashes are the result and its 32-bit rotation: bucket indices
// come from its low and its high half.
func (k Key) hash(seed uint64) (uint64, uint64) {
	h := mix64((k.W0^seed)*0x9e3779b97f4a7c15 ^
		(k.W1^seed)*0xc2b2ae3d27d4eb4f ^
		(k.W2^seed)*0x165667b19e3779f9 ^
		(k.W3^seed)*0xd6e8feb86659fd93)
	return h, bits.RotateLeft64(h, 32)
}

func (k Key1) hash(seed uint64) (uint64, uint64) {
	h := mix64((uint64(k) ^ seed) * 0x9e3779b97f4a7c15)
	return h, bits.RotateLeft64(h, 32)
}

func (Key) of(w Key) Key   { return w }
func (Key1) of(w Key) Key1 { return Key1(w.W0) }

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
// bits 16i..16i+15.  A lane is zero when its slot is empty, laneRetired when
// its key was deleted from a published table since the last grace period,
// and the stored key's tag (laneTag) otherwise.
const (
	laneOnes = 0x0001000100010001 // 1 in every lane: broadcasts a tag
	laneLow  = 0x7fff7fff7fff7fff // every lane's low 15 bits
	laneHigh = 0x8000800080008000 // every lane's top bit
	// laneRetired is non-zero, so no insert takes the lane, and has bit 0
	// clear, so no key's tag matches it.
	laneRetired = 2
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

// slot holds a key and the pointer to its value.
type slot[K key[K], V any] struct {
	key   K
	value atomic.Pointer[V]
}

type bucket[K key[K], V any] struct {
	slots [bucketSlots]slot[K, V]
}

// entry is a key and its value on their way into a slot: the displacement
// walk carries the one it evicted.
type entry[K key[K], V any] struct {
	key   K
	value *V
}

// table is the cuckoo table and its update protocol, at any key width.
type table[K key[K], V any] struct {
	buckets []bucket[K, V]
	// tags is the buckets' tag words (tags[b] for buckets[b]) and the one
	// record of which slots are occupied.  A probe reads the word, finds the
	// lanes equal to the key's tag with one SWAR test, and compares keys only
	// in those — on a miss, usually none.
	tags  []uint64
	mask  uint64
	seed  uint64
	count atomic.Int64
	// rebuilds counts how many times the table was rebuilt with a new
	// seed or grown; the update-cost experiments report it.
	rebuilds int
	// retired lists the lanes (bucket<<2 | slot) deleted since the last
	// grace period, and quiesce waits for one; it is nil until Publish.
	retired []uint64
	quiesce func()
}

// Map1 and Map4 are the table at one and four key words, with values of
// type V.  Each adds its width's Hash; the generic table's own calls to a
// key's hash are indirect, which is fine on the write side but not in a
// probe loop.
type (
	Map1[V any] struct{ table[Key1, V] }
	Map4[V any] struct{ table[Key, V] }
)

// New1 and New4 return an empty table of their width pre-sized for the
// given number of entries.
func New1[V any](sizeHint int) *Map1[V] {
	m := new(Map1[V])
	m.reset(sizeHint)
	return m
}

func New4[V any](sizeHint int) *Map4[V] {
	m := new(Map4[V])
	m.reset(sizeHint)
	return m
}

// Hash returns the two bucket hashes of a key under the table's current
// seed.  Burst-mode callers hash every key of a burst up front — while the
// freshly packed key is still in registers — and then probe with
// LookupPrehashed, so the dependent bucket loads issue back to back and
// their cache misses overlap (the software-pipelining trick of burst-mode
// dataplanes).
func (m *Map1[V]) Hash(k Key1) (h1, h2 uint64) { return k.hash(m.seed) }
func (m *Map4[V]) Hash(k Key) (h1, h2 uint64)  { return k.hash(m.seed) }

func (t *table[K, V]) reset(sizeHint int) {
	t.seed = 0x2545f4914f6cdd1d
	t.init(capacityFor(sizeHint))
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

func (t *table[K, V]) init(buckets int) {
	t.buckets = make([]bucket[K, V], buckets)
	t.tags = make([]uint64, buckets)
	t.mask = uint64(buckets - 1)
	t.count.Store(0)
}

// Len returns the number of stored entries.
func (t *table[K, V]) Len() int { return int(t.count.Load()) }

// Publish hands the table to concurrent readers: from now on tag words are
// stored atomically, an insert neither displaces an entry nor rebuilds the
// table, and a deleted lane is reused only after quiesce, which must wait
// until every lookup begun before the call has returned, has been called.
func (t *table[K, V]) Publish(quiesce func()) { t.quiesce = quiesce }

// LookupPrehashed returns the value stored for a key whose bucket hashes
// were computed with its width's Hash, or nil.  Both tag words are loaded
// before either bucket is scanned, so a miss in a cold table waits for one
// memory round trip, not two.
func (t *table[K, V]) LookupPrehashed(k K, h1, h2 uint64) *V {
	tag := laneTag(h1) * laneOnes
	b1, b2 := h1&t.mask, h2&t.mask
	m1 := zeroLanes(atomic.LoadUint64(&t.tags[b1]) ^ tag)
	m2 := zeroLanes(atomic.LoadUint64(&t.tags[b2]) ^ tag)
	for ; m1 != 0; m1 &= m1 - 1 {
		if s := &t.buckets[b1].slots[laneSlot(m1)]; s.key == k {
			return s.value.Load()
		}
	}
	for ; m2 != 0; m2 &= m2 - 1 {
		if s := &t.buckets[b2].slots[laneSlot(m2)]; s.key == k {
			return s.value.Load()
		}
	}
	return nil
}

// find locates a pre-hashed key: its bucket and slot index, or slot -1.
func (t *table[K, V]) find(k K, h1, h2 uint64) (uint64, int) {
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
func (t *table[K, V]) slotOf(b uint64, k K, tag uint64) int {
	for m := zeroLanes(atomic.LoadUint64(&t.tags[b]) ^ tag); m != 0; m &= m - 1 {
		if i := laneSlot(m); t.buckets[b].slots[i].key == k {
			return i
		}
	}
	return -1
}

// Value returns the value pointer stored beside the key's leading words, or
// nil when the key is absent.  The writer reads the stored value through it
// and may store a new one: a reader that loads the pointer after the store
// sees the new value, one that loaded it before the old.
func (t *table[K, V]) Value(w Key) *atomic.Pointer[V] {
	var z K
	k := z.of(w)
	h1, h2 := k.hash(t.seed)
	if b, i := t.find(k, h1, h2); i >= 0 {
		return &t.buckets[b].slots[i].value
	}
	return nil
}

// Insert stores v for the key's leading words, replacing the value of a
// stored key.  On a published table a new key first reclaims the lanes
// retired since the last grace period; the insert reports false, and stores
// nothing, when neither of the key's buckets has an empty lane.  An
// unpublished table places every key.
func (t *table[K, V]) Insert(w Key, v *V) bool {
	var z K
	e := entry[K, V]{z.of(w), v}
	h1, h2 := e.key.hash(t.seed)
	if b, i := t.find(e.key, h1, h2); i >= 0 {
		t.buckets[b].slots[i].value.Store(v)
		return true
	}
	if t.quiesce == nil {
		if leftover, ok := t.place(e, maxKicks); !ok {
			// Cuckoo path exhausted: rebuild into a larger, re-seeded
			// table, carrying along the entry that could not be placed.
			t.rebuild([]entry[K, V]{leftover}, len(t.buckets)*2)
			return true
		}
	} else {
		if len(t.retired) > 0 {
			t.reclaim()
		}
		if _, ok := t.place(e, 0); !ok {
			return false
		}
	}
	t.count.Add(1)
	return true
}

const maxKicks = 64

// place stores the entry in the emptier of its two buckets, displacing
// entries up to kicks times when both are full.  On success it reports true.
// On failure it returns the entry that ended up without a home (which is
// generally not the entry passed in — displacement may have evicted an
// older one) so the caller can rebuild without losing it.
func (t *table[K, V]) place(cur entry[K, V], kicks int) (entry[K, V], bool) {
	from := ^uint64(0) // the bucket cur was just evicted from; none yet
	for kick := 0; ; kick++ {
		h1, h2 := cur.key.hash(t.seed)
		b1, b2 := h1&t.mask, h2&t.mask
		tag := laneTag(h1)
		m1, m2 := zeroLanes(t.tags[b1]), zeroLanes(t.tags[b2])
		if bits.OnesCount64(m2) > bits.OnesCount64(m1) {
			b1, b2, m1 = b2, b1, m2
		}
		if m1 != 0 {
			i := laneSlot(m1)
			s := &t.buckets[b1].slots[i]
			s.key = cur.key // plain: no reader compares an empty lane's key
			s.value.Store(cur.value)
			t.setLane(b1, i, tag)
			return entry[K, V]{}, true
		}
		if kick == kicks {
			return cur, false
		}
		// Both buckets full: evict from the bucket cur did not just
		// leave, or the victim — often at home in that same bucket —
		// would evict cur's evictor in turn and the walk would bounce
		// inside one bucket.  The victim slot starts at hash bits no
		// bucket index uses and rotates with the kick count.
		to := h1 & t.mask
		if to == from {
			to = h2 & t.mask
		}
		victim := (int(h1>>62) + kick) % bucketSlots
		s := &t.buckets[to].slots[victim]
		evicted := entry[K, V]{s.key, s.value.Load()}
		s.key = cur.key
		s.value.Store(cur.value)
		t.setLane(to, victim, tag)
		cur, from = evicted, to
	}
}

// reclaim waits for a grace period, empties the retired lanes and drops
// their values.
func (t *table[K, V]) reclaim() {
	t.quiesce()
	for _, l := range t.retired {
		t.setLane(l>>2, int(l&3), 0)
		t.buckets[l>>2].slots[l&3].value.Store(nil)
	}
	t.retired = t.retired[:0]
}

// setLane stores a slot's lane of bucket b's tag word: the key's tag, 0 to
// mark the slot empty or laneRetired.  The store is atomic once the table is
// published.
func (t *table[K, V]) setLane(b uint64, i int, tag uint64) {
	sh := uint(i) * 16
	w := t.tags[b]&^(0xffff<<sh) | tag<<sh
	if t.quiesce != nil {
		atomic.StoreUint64(&t.tags[b], w)
	} else {
		t.tags[b] = w
	}
}

// rebuild re-creates the table with at least minBuckets buckets and a fresh
// seed, re-inserting every stored entry plus the extra (homeless) ones.  It
// keeps doubling until every entry places, so the table stays collision
// bounded.
func (t *table[K, V]) rebuild(extra []entry[K, V], minBuckets int) {
	all := append([]entry[K, V](nil), extra...)
	t.forEach(func(k K, v *V) { all = append(all, entry[K, V]{k, v}) })
	buckets := minBuckets
	if buckets < 4 {
		buckets = 4
	}
	for {
		t.rebuilds++
		t.seed = mix64(t.seed + uint64(t.rebuilds)*0x9e3779b97f4a7c15)
		t.init(buckets)
		ok := true
		for _, e := range all {
			if _, placed := t.place(e, maxKicks); !placed {
				ok = false
				break
			}
		}
		if ok {
			t.count.Store(int64(len(all)))
			return
		}
		buckets *= 2
	}
}

// Delete removes the key with w's leading words, reporting whether it was
// present.  On a published table the lane is retired, its key and value
// pointer left for the readers, until the next insert reclaims it; elsewhere
// the lane is empty and the value dropped at once.
func (t *table[K, V]) Delete(w Key) bool {
	var z K
	k := z.of(w)
	h1, h2 := k.hash(t.seed)
	b, i := t.find(k, h1, h2)
	if i < 0 {
		return false
	}
	if t.quiesce != nil {
		t.setLane(b, i, laneRetired)
		t.retired = append(t.retired, b<<2|uint64(i))
	} else {
		t.setLane(b, i, 0)
		t.buckets[b].slots[i].value.Store(nil)
	}
	t.count.Add(-1)
	return true
}

// forEach calls fn for every stored entry; iteration order is unspecified.
func (t *table[K, V]) forEach(fn func(K, *V)) {
	for bi, w := range t.tags {
		for si := range t.buckets[bi].slots {
			if w>>(16*si)&1 != 0 { // a tag, not empty or retired
				s := &t.buckets[bi].slots[si]
				fn(s.key, s.value.Load())
			}
		}
	}
}

// MemoryFootprint returns the size in bytes of the lookup structure, the
// buckets and their tag words; the cache-hierarchy model uses it as the
// working-set size.  The values the slots point to are not counted.
func (t *table[K, V]) MemoryFootprint() int {
	return len(t.buckets)*int(unsafe.Sizeof(bucket[K, V]{})) + len(t.tags)*8
}

// String summarizes the table.
func (t *table[K, V]) String() string {
	return fmt.Sprintf("exacthash{entries=%d buckets=%d rebuilds=%d}", t.Len(), len(t.buckets), t.rebuilds)
}

// ---------------------------------------------------------------------------
// The 32-bit adapter
// ---------------------------------------------------------------------------

// Table is the four-word table with 32-bit values, each boxed behind its
// slot's pointer: the standalone table bench/ times for exacthash.lookup_ns
// until the benchmark times a compiled stage's own lookup.  It adds no probe
// of its own.  The zero value is not usable; use New.
type Table struct{ Map4[uint32] }

// New returns an empty table pre-sized for the given number of entries.
func New(sizeHint int) *Table {
	t := new(Table)
	t.reset(sizeHint)
	return t
}

// Insert adds or replaces the value stored for the key, as Map4.Insert.
func (t *Table) Insert(k Key, value uint32) bool { return t.Map4.Insert(k, &value) }

// batchChunk bounds the scratch LookupBatch hashes into; larger batches are
// processed in chunks.
const batchChunk = 64

// BatchScratch is the hash staging area of the batched lookup paths.
// Callers own it (one per worker, reused across bursts) so the batch path
// never zero-initializes scratch on the hot path.
type BatchScratch struct {
	H1, H2 [batchChunk]uint64
}

// LookupBatch looks up a batch of keys, writing the result for keys[i] to
// values[i] and hits[i] (all three slices must have equal length): the
// hashes of a whole chunk are computed before any bucket is probed.
func (t *Table) LookupBatch(keys []Key, values []uint32, hits []bool, sc *BatchScratch) {
	for base := 0; base < len(keys); base += batchChunk {
		n := min(len(keys)-base, batchChunk)
		for i := 0; i < n; i++ {
			sc.H1[i], sc.H2[i] = t.Hash(keys[base+i])
		}
		for i := 0; i < n; i++ {
			values[base+i], hits[base+i] = 0, false
			if v := t.Map4.LookupPrehashed(keys[base+i], sc.H1[i], sc.H2[i]); v != nil {
				values[base+i], hits[base+i] = *v, true
			}
		}
	}
}
