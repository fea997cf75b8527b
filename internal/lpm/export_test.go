package lpm

import (
	"fmt"
	"sort"
)

// Stride returns the first-level stride in bits.
func (t *Table) Stride() int { return int(t.stride) }

// SecondLevelGroups returns the number of second-level groups in use: neither
// free nor retired.
func (t *Table) SecondLevelGroups() int {
	n := 0
	if p := t.pool.Load(); p != nil {
		n = len(*p) / groupSize
	}
	return n - len(t.free) - len(t.retired)
}

// Lookup returns the value of the longest prefix covering addr and whether
// any prefix matched.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	v, _, ok := t.Resolve(addr, t.Probe1(addr))
	return v, ok
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
		return invalid, false
	}
	return bestVal, true
}
