package openflow

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"eswitch/internal/pkt"
)

// refTable is the flow table as it was before its order became lazy: one
// slice sorted by (priority desc, seq asc) that every add and delete shifts
// in place, so the match order is always built.  FuzzFlowTableOps holds
// every read of FlowTable to it.
type refTable struct {
	entries []refEntry
	nextSeq uint64
}

type refEntry struct {
	e   *FlowEntry
	seq uint64
}

func (r *refTable) find(priority int, match *Match) int {
	return slices.IndexFunc(r.entries, func(o refEntry) bool {
		return o.e.Priority == priority && o.e.Match.Equal(match)
	})
}

func (r *refTable) add(e *FlowEntry) bool {
	if i := r.find(e.Priority, e.Match); i >= 0 {
		r.entries[i].e = e
		return false
	}
	seq := r.nextSeq
	r.nextSeq++
	pos := sort.Search(len(r.entries), func(i int) bool {
		o := r.entries[i]
		return o.e.Priority < e.Priority || (o.e.Priority == e.Priority && o.seq >= seq)
	})
	r.entries = slices.Insert(r.entries, pos, refEntry{e: e, seq: seq})
	return true
}

func (r *refTable) deleteWhere(pred func(*FlowEntry) bool) int {
	n := len(r.entries)
	r.entries = slices.DeleteFunc(r.entries, func(o refEntry) bool { return pred(o.e) })
	return n - len(r.entries)
}

func (r *refTable) delete(match *Match, priority int) int {
	return r.deleteWhere(func(e *FlowEntry) bool {
		return e.Match.Equal(match) && (priority < 0 || e.Priority == priority)
	})
}

func (r *refTable) lookup(p *pkt.Packet) *FlowEntry {
	for _, o := range r.entries {
		if o.e.Match.Matches(p, nil) {
			return o.e
		}
	}
	return nil
}

func (r *refTable) fork() *refTable {
	return &refTable{entries: slices.Clone(r.entries), nextSeq: r.nextSeq}
}

func (r *refTable) String(id TableID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table=%d\n", id)
	for _, o := range r.entries {
		sb.WriteString("  " + o.e.String() + "\n")
	}
	return sb.String()
}

// parked copies t's state as it stands, parked work included, so that each
// read of a check starts from the unmerged table: a reader that skips the
// merge shows, instead of being covered by an earlier reader's.  The copy
// shares t's index, which no read writes.
func parked(t *FlowTable) *FlowTable {
	c := *t
	c.entries = slices.Clone(t.entries)
	c.pending = slices.Clone(t.pending)
	return &c
}

// fuzzMatch maps a byte onto one of 256 distinct, heavily overlapping
// matches: any or one of three in-ports, and any destination or a /24, /28,
// /30 or /32 in 10.0.0.0/20.
func fuzzMatch(x byte) *Match {
	m := NewMatch()
	if port := x & 3; port != 0 {
		m.Set(FieldInPort, uint64(port))
	}
	if k := x >> 2; k != 0 {
		plen := [...]int{24, 32, 28, 30}[k>>4]
		m.SetPrefix(FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, k&15, 1)), plen)
	}
	return m
}

// fuzzPackets covers the regions fuzzMatch tells apart: each in-port, three
// of the /24s, and hosts on the /32, in the /30 and in the /28.
func fuzzPackets(t testing.TB) []*pkt.Packet {
	var ps []*pkt.Packet
	for port := uint32(1); port <= 3; port++ {
		for third := byte(0); third < 16; third += 7 {
			for _, host := range []byte{1, 2, 5} {
				ps = append(ps, tcpPacket(t, port, 1, pkt.IPv4FromOctets(10, 0, third, host), 1, 2))
			}
		}
	}
	return ps
}

// checkTable compares every read of t, each on its own parked copy, with
// the reference.
func checkTable(t *testing.T, op int, side string, tbl *FlowTable, ref *refTable, packets []*pkt.Packet) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d, %s table: %s", op, side, fmt.Sprintf(format, args...))
	}
	if n := tbl.Len(); n != len(ref.entries) {
		fail("Len %d, reference %d", n, len(ref.entries))
	}
	c := parked(tbl)
	for i, p := range packets {
		if got, want := c.Lookup(p, nil), ref.lookup(p); got != want {
			fail("Lookup of packet %d: %v, reference %v", i, got, want)
		}
	}
	got := parked(tbl).Entries()
	if len(got) != len(ref.entries) {
		fail("%d entries, reference %d", len(got), len(ref.entries))
	}
	var fields FieldSet
	c = parked(tbl)
	for i, o := range ref.entries {
		if got[i] != o.e {
			fail("entry %d is %v, reference %v", i, got[i], o.e)
		}
		if c.Entry(o.e.Priority, o.e.Match) == nil {
			fail("Entry(%v) nil", o.e)
		}
		fields = fields.Union(o.e.Match.Fields())
	}
	for x := 0; x < 256; x += 37 { // a sample of keys, present or not
		m, prio := fuzzMatch(byte(x)), x%4
		if got, want := c.Entry(prio, m) != nil, ref.find(prio, m) >= 0; got != want {
			fail("Entry(%d, %v) found = %v, reference %v", prio, m, got, want)
		}
	}
	if got := parked(tbl).MatchFields(); got != fields {
		fail("MatchFields %v, reference %v", got, fields)
	}
	if got, want := parked(tbl).String(), ref.String(tbl.ID); got != want {
		fail("String:\n%s\nreference:\n%s", got, want)
	}
}

// FuzzFlowTableOps drives FlowTable with byte-coded mods — adds (new and
// replacing), deletes with and without priority, DeleteWhere, Fork with both
// sides mutated afterwards, Clone — and after every op compares each read
// (Entries, Lookup, Len, Entry, MatchFields, String) with refTable.  Four
// priorities make insertion order within a priority matter, and the bulk add
// takes a table past inPlaceShift, so adds are parked and merged as well as
// applied in place.
//
// Each op is three bytes, (code, a, b).  Ops past the first 64 are ignored,
// and the bulk add stops at 96 entries, which keeps a run to milliseconds.
func FuzzFlowTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 9, 2, 0, 0, 3, 0, 0})
	rng := rand.New(rand.NewSource(48))
	for _, size := range []int{96, 192} {
		seed := make([]byte, size)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*64)]
		packets := fuzzPackets(t)
		type side struct {
			tbl  *FlowTable
			ref  *refTable
			last *FlowEntry // the newest add, for the delete of it
		}
		cur := &side{tbl: NewFlowTable(3), ref: &refTable{}}
		var other *side
		cookie := uint64(0)
		add := func(prio int, x byte) {
			cookie++
			e := NewEntry(prio, fuzzMatch(x), Apply(Output(uint32(cookie%4+1))))
			e.Cookie = cookie
			if got, want := cur.tbl.Add(e), cur.ref.add(e); got != want {
				t.Fatalf("Add(%v) = %v, reference %v", e, got, want)
			}
			cur.last = e
		}
		for op, ops := 0, data; len(ops) >= 3; op, ops = op+1, ops[3:] {
			a, b := ops[1], ops[2]
			switch ops[0] % 8 {
			case 0: // add, or replace when the key is installed
				add(int(a%4), b)
			case 1: // bulk add at one priority
				for k := 0; k <= int(a%48) && len(cur.ref.entries) < 96; k++ {
					add(int(b%4), b+byte(7*k))
				}
			case 2: // priority-qualified delete: the newest add, an entry, or any key
				var m *Match
				var prio int
				switch n := len(cur.ref.entries); {
				case b&1 != 0 && cur.last != nil:
					m, prio = cur.last.Match, cur.last.Priority
				case b&2 != 0 && n > 0:
					o := cur.ref.entries[int(a)%n].e
					m, prio = o.Match, o.Priority
				default:
					m, prio = fuzzMatch(a), int(b>>2)%4
				}
				if got, want := cur.tbl.Delete(m, prio), cur.ref.delete(m, prio); got != want {
					t.Fatalf("op %d: Delete(%v, %d) = %d, reference %d", op, m, prio, got, want)
				}
			case 3: // any-priority delete
				m := fuzzMatch(a)
				if got, want := cur.tbl.Delete(m, -1), cur.ref.delete(m, -1); got != want {
					t.Fatalf("op %d: Delete(%v, -1) = %d, reference %d", op, m, got, want)
				}
			case 4:
				mod, rem := uint64(2+a%5), uint64(b)%uint64(2+a%5)
				pred := func(e *FlowEntry) bool { return e.Cookie%mod == rem }
				if got, want := cur.tbl.DeleteWhere(pred), cur.ref.deleteWhere(pred); got != want {
					t.Fatalf("op %d: DeleteWhere = %d, reference %d", op, got, want)
				}
			case 5: // fork, or carry on with the other side of a fork
				if a&1 == 0 || other == nil {
					other = &side{tbl: cur.tbl.Fork(), ref: cur.ref.fork()}
				}
				cur, other = other, cur
			case 6: // carry on with a deep copy: fresh entries, same cookies
				c := cur.tbl.Clone()
				ref := &refTable{}
				for i, e := range c.Entries() {
					if o := cur.ref.entries[i].e; e == o || e.Cookie != o.Cookie || e.String() != o.String() {
						t.Fatalf("op %d: clone entry %d is %v, original %v", op, i, e, o)
					}
					ref.add(e)
				}
				*cur = side{tbl: c, ref: ref}
			case 7: // a read on the table itself, merging its parked work
				cur.tbl.Entries()
			}
			checkTable(t, op, "current", cur.tbl, cur.ref, packets)
			if other != nil {
				checkTable(t, op, "other", other.tbl, other.ref, packets)
			}
		}
	})
}

// TestFlowTableIndexCollisions runs adds, replaces, deletes of every kind,
// DeleteWhere and forks with a match hash that only tells field sets apart,
// so distinct matches share index keys and the index must tell them apart
// with Match.Equal, checking every read against refTable after every op.
func TestFlowTableIndexCollisions(t *testing.T) {
	defer func(h func(*Match) uint64) { matchHash = h }(matchHash)
	matchHash = func(m *Match) uint64 { return uint64(m.Fields()) }
	packets := fuzzPackets(t)
	rng := rand.New(rand.NewSource(49))
	tbl, ref := NewFlowTable(1), &refTable{}
	var fork *FlowTable
	var forkRef *refTable
	for op := 0; op < 600; op++ {
		x, prio := byte(rng.Intn(64)), rng.Intn(2) // 128 keys over four field sets
		switch rng.Intn(11) {
		default: // add, or replace when the key is installed
			e := NewEntry(prio, fuzzMatch(x), Apply(Output(uint32(op%4+1))))
			if got, want := tbl.Add(e), ref.add(e); got != want {
				t.Fatalf("op %d: Add(%v) = %v, reference %v", op, e, got, want)
			}
		case 6, 7: // delete an installed entry: the index's own or a collided one
			if n := len(ref.entries); n > 0 {
				o := ref.entries[rng.Intn(n)].e
				if got, want := tbl.Delete(o.Match, o.Priority), ref.delete(o.Match, o.Priority); got != want {
					t.Fatalf("op %d: Delete(%v) = %d, reference %d", op, o, got, want)
				}
			}
		case 8: // delete a key, present or not
			m := fuzzMatch(x)
			if got, want := tbl.Delete(m, prio), ref.delete(m, prio); got != want {
				t.Fatalf("op %d: Delete(%v, %d) = %d, reference %d", op, m, prio, got, want)
			}
		case 9:
			rem := uint64(rng.Intn(5))
			pred := func(e *FlowEntry) bool { return e.Instructions.ApplyActions[0].Port%5 == uint32(rem) }
			if got, want := tbl.DeleteWhere(pred), ref.deleteWhere(pred); got != want {
				t.Fatalf("op %d: DeleteWhere = %d, reference %d", op, got, want)
			}
		case 10: // switch to a fork, or back
			if fork == nil || rng.Intn(2) == 0 {
				fork, forkRef = tbl.Fork(), ref.fork()
			}
			tbl, fork, ref, forkRef = fork, tbl, forkRef, ref
		}
		checkTable(t, op, "current", tbl, ref, packets)
		if fork != nil {
			checkTable(t, op, "fork", fork, forkRef, packets)
		}
	}
}
