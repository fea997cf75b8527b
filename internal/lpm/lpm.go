// Package lpm implements a DIR-24-8 longest-prefix-match table in the memory
// layout of the DPDK rte_lpm library the paper's LPM flow-table template
// builds on (§3.1, Fig. 4): a first-level direct-indexed table (tbl24)
// covering the top bits of the address and 256-entry second-level groups
// (tbl8) for longer prefixes, so a lookup costs at most two memory accesses.
//
// Every entry of both levels is one 32-bit word, rte_lpm's next_hop:24,
// depth:6 split:
//
//	valid(31) | ext(30) | depth(29..24) | value-or-group(23..0)
//
// A valid entry holds the value of the longest prefix covering its slot and
// that prefix's length; an extended (ext) first-level entry holds the index
// of its tbl8 group instead.  Insert and Delete read the depth out of the
// entry, so no side array shadows either level.  The groups live in one flat
// pool, group g being tbl8[g*256 : g*256+256].  When Delete removes the last
// prefix longer than the stride under a group, the group is folded back into
// its first-level entry and its index goes on a free list for the next
// group, as rte_lpm's tbl8_recycle_check does.
//
// rte_lpm runs from huge-page memory.  On Linux the first level is a plain Go
// allocation whose 2 MiB-aligned interior is advised MADV_HUGEPAGE before its
// first write, so the 64 MB tbl24 of New spans 32 transparent huge pages
// instead of 16,384 base pages and a random probe rarely misses the TLB; it
// stays on the Go heap and is counted there.  Clone copies the first level
// with one append and advises the copy afterwards, leaving khugepaged to
// collapse it: allocating the copy zeroed, advising it and only then copying
// into it made the few hundred flow-mods after a mirror up to 1.7 times
// slower.  Elsewhere the first level is a plain allocation on the default
// pages.
//
// Beside the prefix map the table counts its prefixes per length and per /8
// region (a prefix shorter than /8 counts in the /8 its address starts).
// Delete rewrites the deleted prefix's slots with the longest remaining
// prefix covering it, and finds that prefix by probing the map only at the
// lengths whose count is non-zero in the candidate's region: a route delete
// in a sparsely covered part of the address space costs a few array reads,
// not a map probe at each of up to 24 shorter lengths.
//
// The first-level stride is configurable (24 bits reproduces rte_lpm's
// DIR-24-8 layout and supports /0–/32 prefixes; tests may use smaller strides
// to keep memory small, which limits the maximum prefix length to stride+8).
// The tests check it against a linear-scan reference (Reference, in
// export_test.go).
package lpm

import (
	"fmt"
	"maps"
	"slices"
)

// invalid is the value Resolve returns when no prefix covers the address.
const invalid = ^uint32(0)

const (
	validBit   = 1 << 31
	extBit     = 1 << 30
	depthShift = 24
	valueMask  = 1<<depthShift - 1
	groupSize  = 256
)

// defaultStride is the first-level stride of the classic DIR-24-8 layout.
const defaultStride = 24

// Table is a DIR-24-8-style longest prefix match table over 32-bit keys.
// The zero value is not usable; use New.
type Table struct {
	stride  uint
	tbl24   []uint32
	tbl8    []uint32 // the group pool: group g is tbl8[g*groupSize:][:groupSize]
	free    []uint32 // indexes of recycled groups
	entries map[prefixKey]uint32
	// counts[r][l] is the number of installed /l prefixes in the /8 region
	// r (33 KB), a prefix shorter than /8 counting in the region its address
	// starts.
	counts [256][33]uint32
}

type prefixKey struct {
	addr uint32
	len  uint8
}

// entry encodes a valid entry holding value for a prefix of length depth.
func entry(value uint32, depth int) uint32 {
	return validBit | uint32(depth)<<depthShift | value
}

// depthOf returns the prefix length an entry holds; 0 for an invalid entry.
func depthOf(e uint32) int { return int(e>>depthShift) & 0x3f }

// New returns an empty table with the classic 24-bit first level.
func New() *Table { return newWithStride(defaultStride) }

// newWithStride returns an empty table whose first level covers the given
// number of address bits (8–24).
func newWithStride(stride int) *Table {
	stride = min(max(stride, 8), 24)
	t := &Table{
		stride:  uint(stride),
		tbl24:   make([]uint32, 1<<uint(stride)),
		entries: make(map[prefixKey]uint32),
	}
	adviseHuge(t.tbl24) // before the first write, so the pages fault in huge
	return t
}

// maxPrefixLen returns the longest prefix length the table supports.
func (t *Table) maxPrefixLen() int { return int(t.stride) + 8 }

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
		stride:  t.stride,
		tbl24:   slices.Clone(t.tbl24),
		tbl8:    slices.Clone(t.tbl8),
		free:    slices.Clone(t.free),
		entries: maps.Clone(t.entries),
		counts:  t.counts,
	}
	adviseHuge(nt.tbl24)
	return nt
}

// group returns the tbl8 group an extended first-level entry points at.
func (t *Table) group(e uint32) []uint32 {
	return t.tbl8[(e&valueMask)*groupSize:][:groupSize]
}

// Insert adds (or replaces) the prefix addr/prefixLen with the given value.
// The value must fit in 24 bits.
func (t *Table) Insert(addr uint32, prefixLen int, value uint32) error {
	if prefixLen < 0 || prefixLen > t.maxPrefixLen() || prefixLen > 32 {
		return fmt.Errorf("lpm: prefix length %d out of range [0,%d]", prefixLen, t.maxPrefixLen())
	}
	if value > valueMask {
		return fmt.Errorf("lpm: value %d does not fit in 24 bits", value)
	}
	addr = maskAddr(addr, prefixLen)
	n := len(t.entries)
	t.entries[prefixKey{addr, uint8(prefixLen)}] = value
	if len(t.entries) > n { // a new prefix, not a replace
		t.counts[addr>>24][prefixLen]++
	}
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
// Only the slots holding the deleted prefix are rewritten (they fall back to
// the longest remaining covering prefix), so deletes are incremental as in
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
	t.counts[addr>>24][prefixLen]--
	var repl uint32 // the longest remaining covering prefix, or invalid
	if v, l, ok := t.coveringPrefix(addr, prefixLen); ok {
		repl = entry(v, l)
	}

	stride := t.stride
	if prefixLen <= int(stride) {
		first := addr >> (32 - stride)
		end := first + 1<<(stride-uint(prefixLen))
		for slot := first; slot < end; slot++ {
			e := t.tbl24[slot]
			if e&extBit != 0 {
				replace(t.group(e), prefixLen, repl)
			} else if depthOf(e) == prefixLen {
				t.tbl24[slot] = repl
			}
		}
		return true
	}
	slot := addr >> (32 - stride)
	g := t.group(t.tbl24[slot])
	first := (addr >> (24 - stride)) & 0xff
	replace(g[first:first+1<<(stride+8-uint(prefixLen))], prefixLen, repl)
	// Fold a group left without a prefix longer than the stride back into
	// its first-level entry: all its entries are then the one covering
	// prefix (or invalid), which tbl24 holds alone.
	if e0 := g[0]; depthOf(e0) <= int(stride) && !slices.ContainsFunc(g, func(e uint32) bool { return e != e0 }) {
		t.free = append(t.free, t.tbl24[slot]&valueMask)
		t.tbl24[slot] = e0
	}
	return true
}

// replace rewrites the entries of s holding a prefix of length depth with
// repl.  Within the slots one prefix covers, only that prefix has its length.
func replace(s []uint32, depth int, repl uint32) {
	for j, e := range s {
		if depthOf(e) == depth {
			s[j] = repl
		}
	}
}

// coveringPrefix returns the value and length of the longest remaining prefix
// that strictly covers addr/prefixLen, probing the map only at the lengths
// whose count is non-zero in the candidate's region.
func (t *Table) coveringPrefix(addr uint32, prefixLen int) (uint32, int, bool) {
	for l := prefixLen - 1; l >= 0; l-- {
		a := maskAddr(addr, l)
		if t.counts[a>>24][l] == 0 {
			continue
		}
		if v, ok := t.entries[prefixKey{a, uint8(l)}]; ok {
			return v, l, true
		}
	}
	return 0, 0, false
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
		return invalid, 1, false
	}
	if e&extBit == 0 {
		return e & valueMask, 1, true
	}
	e2 := t.tbl8[(e&valueMask)*groupSize+(addr>>(24-t.stride))&0xff]
	if e2&validBit == 0 {
		return invalid, 2, false
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

func maskAddr(addr uint32, prefixLen int) uint32 {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= 32 {
		return addr
	}
	return addr &^ (uint32(1)<<(32-uint(prefixLen)) - 1)
}

// install writes one prefix into the lookup structure, overwriting only
// entries currently held by prefixes no longer than it.
func (t *Table) install(addr uint32, prefixLen int, value uint32) {
	ent := entry(value, prefixLen)
	stride := t.stride
	if prefixLen <= int(stride) {
		first := addr >> (32 - stride)
		end := first + 1<<(stride-uint(prefixLen))
		for slot := first; slot < end; slot++ {
			e := t.tbl24[slot]
			if e&extBit != 0 {
				fill(t.group(e), prefixLen, ent)
			} else if depthOf(e) <= prefixLen { // an invalid entry has depth 0
				t.tbl24[slot] = ent
			}
		}
		return
	}
	// Longer than the first-level stride: route through a group, which
	// starts out as copies of the first-level entry it replaces.
	slot := addr >> (32 - stride)
	e := t.tbl24[slot]
	if e&extBit == 0 {
		var g uint32
		if n := len(t.free); n > 0 {
			g, t.free = t.free[n-1], t.free[:n-1]
		} else {
			g = uint32(len(t.tbl8) / groupSize)
			t.tbl8 = append(t.tbl8, make([]uint32, groupSize)...)
		}
		prev := e
		e = validBit | extBit | g
		t.tbl24[slot] = e
		grp := t.group(e)
		for j := range grp {
			grp[j] = prev
		}
	}
	first := (addr >> (24 - stride)) & 0xff // the 8 bits below the stride
	fill(t.group(e)[first:first+1<<(stride+8-uint(prefixLen))], prefixLen, ent)
}

// fill writes ent into the entries of s held by prefixes no longer than depth.
func fill(s []uint32, depth int, ent uint32) {
	for j, e := range s {
		if depthOf(e) <= depth {
			s[j] = ent
		}
	}
}
