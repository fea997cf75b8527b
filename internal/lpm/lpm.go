// Package lpm implements a DIR-24-8 longest-prefix-match table equivalent to
// the DPDK rte_lpm library the paper's LPM flow-table template builds on
// (§3.1, Fig. 4): a first-level direct-indexed table covering the top bits of
// the address and second-level 8-bit-stride groups for longer prefixes, so a
// lookup costs at most two memory accesses.
//
// The first-level stride is configurable (24 bits reproduces rte_lpm's
// DIR-24-8 layout and supports /0–/32 prefixes; tests may use smaller strides
// to keep memory small, which limits the maximum prefix length to stride+8).
// A reference implementation (Reference) is included for differential
// testing.
package lpm

import (
	"fmt"
	"sort"
)

// Invalid is returned by Lookup when no prefix covers the address.
const Invalid = ^uint32(0)

const (
	validBit  = 1 << 31
	extBit    = 1 << 30
	valueMask = (1 << 30) - 1
)

// DefaultStride is the first-level stride of the classic DIR-24-8 layout.
const DefaultStride = 24

// Table is a DIR-24-8-style longest prefix match table over 32-bit keys.
// The zero value is not usable; use New or NewWithStride.
type Table struct {
	stride   uint
	tbl24    []uint32
	depths24 []uint8
	groups   []*group
	entries  map[prefixKey]uint32
}

type group struct {
	slots  [256]uint32
	depths [256]uint8
}

type prefixKey struct {
	addr uint32
	len  uint8
}

// New returns an empty table with the classic 24-bit first level.
func New() *Table { return NewWithStride(DefaultStride) }

// NewWithStride returns an empty table whose first level covers the given
// number of address bits (8–24).
func NewWithStride(stride int) *Table {
	if stride < 8 {
		stride = 8
	}
	if stride > 24 {
		stride = 24
	}
	return &Table{
		stride:   uint(stride),
		tbl24:    make([]uint32, 1<<uint(stride)),
		depths24: make([]uint8, 1<<uint(stride)),
		entries:  make(map[prefixKey]uint32),
	}
}

// Stride returns the first-level stride in bits.
func (t *Table) Stride() int { return int(t.stride) }

// MaxPrefixLen returns the longest prefix length the table supports.
func (t *Table) MaxPrefixLen() int { return int(t.stride) + 8 }

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return len(t.entries) }

// FirstLevelSize returns the number of first-level slots; the cost model uses
// it to size the structure's working set.
func (t *Table) FirstLevelSize() int { return len(t.tbl24) }

// Clone returns a deep copy of the table.  The ESWITCH update path mirrors a
// live LPM template once and then ping-pongs between the two copies, so the
// (large) copy of the first level is paid only on the first incremental
// update of a table, not on every route change.
func (t *Table) Clone() *Table {
	nt := &Table{
		stride:   t.stride,
		tbl24:    append([]uint32(nil), t.tbl24...),
		depths24: append([]uint8(nil), t.depths24...),
		groups:   make([]*group, len(t.groups)),
		entries:  make(map[prefixKey]uint32, len(t.entries)),
	}
	for i, g := range t.groups {
		ng := *g
		nt.groups[i] = &ng
	}
	for k, v := range t.entries {
		nt.entries[k] = v
	}
	return nt
}

// SecondLevelGroups returns the number of allocated second-level groups.
func (t *Table) SecondLevelGroups() int { return len(t.groups) }

// Insert adds (or replaces) the prefix addr/prefixLen with the given value.
// The value must fit in 30 bits.
func (t *Table) Insert(addr uint32, prefixLen int, value uint32) error {
	if prefixLen < 0 || prefixLen > t.MaxPrefixLen() || prefixLen > 32 {
		return fmt.Errorf("lpm: prefix length %d out of range [0,%d]", prefixLen, t.MaxPrefixLen())
	}
	if value > valueMask {
		return fmt.Errorf("lpm: value %d does not fit in 30 bits", value)
	}
	addr = maskAddr(addr, prefixLen)
	t.entries[prefixKey{addr, uint8(prefixLen)}] = value
	t.install(addr, prefixLen, value)
	return nil
}

// Get returns the value installed for exactly the prefix addr/prefixLen.
func (t *Table) Get(addr uint32, prefixLen int) (uint32, bool) {
	if prefixLen < 0 || prefixLen > 32 {
		return 0, false
	}
	v, ok := t.entries[prefixKey{maskAddr(addr, prefixLen), uint8(prefixLen)}]
	return v, ok
}

// Delete removes the prefix addr/prefixLen, reporting whether it was present.
// Only the slots written by the deleted prefix are recomputed (they fall back
// to the longest remaining covering prefix), so deletes are incremental as in
// rte_lpm.
func (t *Table) Delete(addr uint32, prefixLen int) bool {
	if prefixLen < 0 || prefixLen > 32 {
		return false
	}
	addr = maskAddr(addr, prefixLen)
	key := prefixKey{addr, uint8(prefixLen)}
	if _, ok := t.entries[key]; !ok {
		return false
	}
	delete(t.entries, key)

	parentVal, parentLen, hasParent := t.coveringPrefix(addr, prefixLen)
	replace := func(depth uint8) (uint32, uint8, bool) {
		if depth != uint8(prefixLen) {
			return 0, 0, false // written by a different (longer or shorter) prefix
		}
		if hasParent {
			return validBit | parentVal, uint8(parentLen), true
		}
		return 0, 0, true
	}

	stride := t.stride
	if prefixLen <= int(stride) {
		first := addr >> (32 - stride)
		count := uint32(1)
		if prefixLen < int(stride) {
			count = 1 << (stride - uint(prefixLen))
		}
		for i := uint32(0); i < count; i++ {
			slot := first + i
			e := t.tbl24[slot]
			if e&validBit != 0 && e&extBit != 0 {
				g := t.groups[e&valueMask]
				for j := range g.slots {
					if v, d, ok := replace(g.depths[j]); ok {
						g.slots[j], g.depths[j] = v, d
					}
				}
				continue
			}
			if v, d, ok := replace(t.depths24[slot]); ok {
				t.tbl24[slot], t.depths24[slot] = v, d
			}
		}
		return true
	}
	slot := addr >> (32 - stride)
	e := t.tbl24[slot]
	if e&validBit == 0 || e&extBit == 0 {
		return true
	}
	g := t.groups[e&valueMask]
	shift := 24 - stride
	first := (addr >> shift) & 0xff
	count := uint32(1)
	if prefixLen < int(stride)+8 {
		count = 1 << (stride + 8 - uint(prefixLen))
	}
	for i := uint32(0); i < count && first+i <= 0xff; i++ {
		j := first + i
		if v, d, ok := replace(g.depths[j]); ok {
			g.slots[j], g.depths[j] = v, d
		}
	}
	return true
}

// coveringPrefix returns the value and length of the longest remaining prefix
// that strictly covers addr/prefixLen.
func (t *Table) coveringPrefix(addr uint32, prefixLen int) (uint32, int, bool) {
	for l := prefixLen - 1; l >= 0; l-- {
		if v, ok := t.entries[prefixKey{maskAddr(addr, l), uint8(l)}]; ok {
			return v, l, true
		}
	}
	return 0, 0, false
}

// Lookup returns the value of the longest prefix covering addr and whether
// any prefix matched.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	v, _, ok := t.Resolve(addr, t.Probe1(addr))
	return v, ok
}

// Probe1 returns the raw first-level (tbl24) entry covering addr.  Burst-mode
// callers probe the first level for a whole batch back to back — the way
// DPDK's rte_lpm_lookup_bulk does — so the independent tbl24 loads overlap
// their cache misses instead of serializing per packet, and then finish each
// lookup with Resolve.
func (t *Table) Probe1(addr uint32) uint32 { return t.tbl24[addr>>(32-t.stride)] }

// Resolve finishes a lookup whose first-level entry was already fetched with
// Probe1, following the second-level tbl8 group when the entry is extended.
// It returns the value, the number of table levels touched (1 or 2; the
// cycle cost model charges one memory access per level, Fig. 20's 13+2·Lx
// atom assuming 2) and whether any prefix matched.
func (t *Table) Resolve(addr uint32, e uint32) (value uint32, depth int, ok bool) {
	if e&validBit == 0 {
		return Invalid, 1, false
	}
	if e&extBit == 0 {
		return e & valueMask, 1, true
	}
	e2 := t.groups[e&valueMask].slots[(addr>>(24-t.stride))&0xff]
	if e2&validBit == 0 {
		return Invalid, 2, false
	}
	return e2 & valueMask, 2, true
}

// LookupBatch resolves a batch of addresses, writing the result for addrs[i]
// to values[i], depths[i] (levels touched, 1 or 2) and hits[i]; all four
// slices must have equal length.  The batch is driven level by level: every
// first-level slot is probed before any tbl8 group is followed.
func (t *Table) LookupBatch(addrs []uint32, values []uint32, depths []uint8, hits []bool) {
	// Level 1: direct-indexed probes for the whole batch; stash the raw
	// first-level entry so level 2 can resolve extended slots.
	for i, addr := range addrs {
		values[i] = t.Probe1(addr)
	}
	// Level 2: resolve each entry, following tbl8 groups where needed.
	for i, addr := range addrs {
		v, d, ok := t.Resolve(addr, values[i])
		values[i], depths[i], hits[i] = v, uint8(d), ok
	}
}

// Prefix describes one installed route.
type Prefix struct {
	Addr  uint32
	Len   int
	Value uint32
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Len)
}

// Prefixes returns the installed prefixes sorted by address then length.
func (t *Table) Prefixes() []Prefix {
	out := make([]Prefix, 0, len(t.entries))
	for k, v := range t.entries {
		out = append(out, Prefix{Addr: k.addr, Len: int(k.len), Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

func maskAddr(addr uint32, prefixLen int) uint32 {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= 32 {
		return addr
	}
	return addr &^ (uint32(1)<<(32-uint(prefixLen)) - 1)
}

// install writes one prefix into the lookup structure, overwriting only slots
// currently held by shorter (less specific) prefixes.
func (t *Table) install(addr uint32, prefixLen int, value uint32) {
	stride := t.stride
	if prefixLen <= int(stride) {
		first := addr >> (32 - stride)
		count := uint32(1)
		if prefixLen < int(stride) {
			count = 1 << (stride - uint(prefixLen))
		}
		for i := uint32(0); i < count; i++ {
			slot := first + i
			e := t.tbl24[slot]
			if e&validBit != 0 && e&extBit != 0 {
				// The slot has a second-level group; update the
				// group's less-specific slots.
				g := t.groups[e&valueMask]
				for j := range g.slots {
					if g.depths[j] <= uint8(prefixLen) {
						g.slots[j] = validBit | value
						g.depths[j] = uint8(prefixLen)
					}
				}
				continue
			}
			if e&validBit == 0 || t.depths24[slot] <= uint8(prefixLen) {
				t.tbl24[slot] = validBit | value
				t.depths24[slot] = uint8(prefixLen)
			}
		}
		return
	}
	// Longer than the first-level stride: route through a group.
	slot := addr >> (32 - stride)
	e := t.tbl24[slot]
	var g *group
	if e&validBit != 0 && e&extBit != 0 {
		g = t.groups[e&valueMask]
	} else {
		g = &group{}
		if e&validBit != 0 {
			prev := e & valueMask
			prevDepth := t.depths24[slot]
			for j := range g.slots {
				g.slots[j] = validBit | prev
				g.depths[j] = prevDepth
			}
		}
		t.groups = append(t.groups, g)
		t.tbl24[slot] = validBit | extBit | uint32(len(t.groups)-1)
		t.depths24[slot] = uint8(stride) // slot is now a pointer
	}
	shift := 24 - stride // group index uses the 8 bits below the stride
	first := (addr >> shift) & 0xff
	count := uint32(1)
	if prefixLen < int(stride)+8 {
		count = 1 << (stride + 8 - uint(prefixLen))
	}
	for i := uint32(0); i < count && first+i <= 0xff; i++ {
		j := first + i
		if g.depths[j] <= uint8(prefixLen) {
			g.slots[j] = validBit | value
			g.depths[j] = uint8(prefixLen)
		}
	}
}

// Reference is a simple, obviously-correct LPM used for differential testing:
// it scans all prefixes and returns the longest match.
type Reference struct {
	prefixes []Prefix
}

// Insert adds a prefix to the reference table.
func (r *Reference) Insert(addr uint32, prefixLen int, value uint32) {
	addr = maskAddr(addr, prefixLen)
	for i, p := range r.prefixes {
		if p.Addr == addr && p.Len == prefixLen {
			r.prefixes[i].Value = value
			return
		}
	}
	r.prefixes = append(r.prefixes, Prefix{Addr: addr, Len: prefixLen, Value: value})
}

// Delete removes a prefix from the reference table.
func (r *Reference) Delete(addr uint32, prefixLen int) bool {
	addr = maskAddr(addr, prefixLen)
	for i, p := range r.prefixes {
		if p.Addr == addr && p.Len == prefixLen {
			r.prefixes = append(r.prefixes[:i], r.prefixes[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup returns the longest-prefix match by linear scan.
func (r *Reference) Lookup(addr uint32) (uint32, bool) {
	best := -1
	var bestVal uint32
	for _, p := range r.prefixes {
		if maskAddr(addr, p.Len) == p.Addr && p.Len > best {
			best = p.Len
			bestVal = p.Value
		}
	}
	if best < 0 {
		return Invalid, false
	}
	return bestVal, true
}
