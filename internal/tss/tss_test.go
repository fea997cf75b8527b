package tss

import (
	"math/rand"
	"reflect"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

func tcpPacket(t testing.TB, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	t.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb)},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	p := &pkt.Packet{Data: frame, InPort: 1}
	pkt.ParseL4(p)
	return p
}

func TestLookupBasic(t *testing.T) {
	c := New()
	c.Insert(&Entry{Priority: 10, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80), Value: 1})
	c.Insert(&Entry{Priority: 10, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 443), Value: 2})
	c.Insert(&Entry{Priority: 5, Match: openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, 0)), 8), Value: 3})

	if c.Len() != 3 || c.NumGroups() != 2 {
		t.Fatalf("len %d groups %d", c.Len(), c.NumGroups())
	}
	p80 := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 1, 1, 1), 5000, 80)
	res := c.Lookup(p80, nil)
	if res.Entry == nil || res.Entry.Value != 1 {
		t.Fatalf("port 80 lookup: %+v", res.Entry)
	}
	p22 := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 1, 1, 1), 5000, 22)
	res = c.Lookup(p22, nil)
	if res.Entry == nil || res.Entry.Value != 3 {
		t.Fatalf("fallback to ip_dst group: %+v", res.Entry)
	}
	pMiss := tcpPacket(t, 1, pkt.IPv4FromOctets(172, 16, 0, 1), 5000, 22)
	if res = c.Lookup(pMiss, nil); res.Entry != nil {
		t.Fatalf("expected miss, got %+v", res.Entry)
	}
}

func TestPriorityAcrossGroups(t *testing.T) {
	c := New()
	// Lower priority exact-port rule, higher priority wildcard-ip rule.
	c.Insert(&Entry{Priority: 1, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80), Value: 1})
	c.Insert(&Entry{Priority: 100, Match: openflow.NewMatch().Set(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, 1))), Value: 2})
	p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), 5000, 80)
	res := c.Lookup(p, nil)
	if res.Entry == nil || res.Entry.Value != 2 {
		t.Fatalf("highest priority across groups must win: %+v", res.Entry)
	}
}

func TestTuplePrioritySortingEarlyExit(t *testing.T) {
	c := New()
	c.Insert(&Entry{Priority: 100, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80), Value: 1})
	for i := 0; i < 10; i++ {
		c.Insert(&Entry{Priority: 1, Match: openflow.NewMatch().Set(openflow.FieldIPDst, uint64(i)).Set(openflow.FieldTCPSrc, uint64(i)), Value: uint32(10 + i)})
	}
	p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), 5000, 80)
	res := c.Lookup(p, nil)
	if res.Entry == nil || res.Entry.Value != 1 {
		t.Fatalf("lookup: %+v", res.Entry)
	}
	if res.GroupsProbed != 1 {
		t.Fatalf("tuple priority sorting should probe 1 group, probed %d", res.GroupsProbed)
	}
}

func TestSamePriorityDisjointMegaflowStyle(t *testing.T) {
	// Megaflow-style usage: same priority, disjoint masked entries.
	c := New()
	for i := 0; i < 100; i++ {
		m := openflow.NewMatch().
			Set(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, byte(i)))).
			Set(openflow.FieldTCPDst, 80)
		c.Insert(&Entry{Priority: 0, Match: m, Value: uint32(i)})
	}
	if c.NumGroups() != 1 {
		t.Fatalf("identical masks must share a group, got %d", c.NumGroups())
	}
	for i := 0; i < 100; i++ {
		p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, byte(i)), 1, 80)
		res := c.Lookup(p, nil)
		if res.Entry == nil || res.Entry.Value != uint32(i) {
			t.Fatalf("entry %d: %+v", i, res.Entry)
		}
		if res.EntriesTested != 1 {
			t.Fatalf("exact-match group should test exactly one entry, tested %d", res.EntriesTested)
		}
	}
}

func TestDeleteAndClear(t *testing.T) {
	c := New()
	m1 := openflow.NewMatch().Set(openflow.FieldTCPDst, 80)
	m2 := openflow.NewMatch().Set(openflow.FieldTCPDst, 443)
	c.Insert(&Entry{Priority: 10, Match: m1, Value: 1})
	c.Insert(&Entry{Priority: 10, Match: m2, Value: 2})
	if !c.Delete(m1, 10) {
		t.Fatal("delete failed")
	}
	if c.Delete(m1, 10) {
		t.Fatal("double delete should fail")
	}
	if c.Delete(m2, 99) {
		t.Fatal("delete with wrong priority should fail")
	}
	if !c.Delete(m2, -1) {
		t.Fatal("delete with any priority failed")
	}
	if c.Len() != 0 || c.NumGroups() != 0 {
		t.Fatalf("len %d groups %d", c.Len(), c.NumGroups())
	}
	c.Insert(&Entry{Priority: 1, Match: m1, Value: 1})
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear failed")
	}
	p := tcpPacket(t, 1, 1, 2, 80)
	if res := c.Lookup(p, nil); res.Entry != nil {
		t.Fatal("lookup after clear should miss")
	}
}

func TestDeleteWhere(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.Insert(&Entry{Priority: i, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, uint64(i)), Value: uint32(i)})
	}
	removed := c.DeleteWhere(func(e *Entry) bool { return e.Value%2 == 0 })
	if removed != 5 || c.Len() != 5 {
		t.Fatalf("removed %d len %d", removed, c.Len())
	}
	for _, e := range c.Entries() {
		if e.Value%2 == 0 {
			t.Fatalf("even entry %d survived", e.Value)
		}
	}
}

func TestReplaceSameMatchPriority(t *testing.T) {
	c := New()
	m := openflow.NewMatch().Set(openflow.FieldTCPDst, 80)
	c.Insert(&Entry{Priority: 10, Match: m, Value: 1})
	c.Insert(&Entry{Priority: 10, Match: m.Clone(), Value: 2})
	if c.Len() != 1 {
		t.Fatalf("len %d", c.Len())
	}
	p := tcpPacket(t, 1, 1, 2, 80)
	if res := c.Lookup(p, nil); res.Entry == nil || res.Entry.Value != 2 {
		t.Fatalf("replace: %+v", res.Entry)
	}
}

// TestEqualPriorityTieBreak pins the interpreter's order for two overlapping
// entries of equal priority in different tuples: the earliest inserted wins
// whichever of their tuples is probed first, a replacement keeps the position of the
// entry it replaces, and a delete hands the packet to the other.  The
// openflow.FlowTable holding the same entries must agree at every step.
func TestEqualPriorityTieBreak(t *testing.T) {
	port := openflow.NewMatch().Set(openflow.FieldTCPDst, 80)
	addr := openflow.NewMatch().Set(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, 1)))
	p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), 5000, 80)
	for _, order := range [][2]*openflow.Match{{port, addr}, {addr, port}} {
		c, ft := New(), openflow.NewFlowTable(0)
		value := uint32(0)
		install := func(m *openflow.Match) {
			value++
			c.Insert(&Entry{Priority: 10, Match: m.Clone(), Value: value})
			ft.Add(openflow.NewEntry(10, m.Clone(), openflow.Apply(openflow.Output(value))))
		}
		check := func(step string, want uint32) {
			t.Helper()
			res := c.Lookup(p, nil)
			if res.Entry == nil || res.Entry.Value != want {
				t.Fatalf("%v first, %s: tss chose %+v, want value %d", order[0], step, res.Entry, want)
			}
			if e := ft.Lookup(p, nil); e == nil || e.Instructions.ApplyActions[0].Port != want {
				t.Fatalf("%v first, %s: the flow table chose %v, want value %d", order[0], step, e, want)
			}
		}
		// The port tuple exists first, so it is probed first in both orders.
		install(openflow.NewMatch().Set(openflow.FieldTCPDst, 443))
		install(order[0])
		install(order[1])
		check("both installed", 2)
		install(order[1])
		check("loser replaced", 2)
		install(order[0])
		check("winner replaced", 5)
		c.Delete(order[0], 10)
		ft.Delete(order[0], 10)
		check("winner deleted", 4)
	}
}

// TestDisjointStopsAtFirstHit keeps the megaflow cache's probe count: a
// disjoint classifier ends the search at its first hit even when later
// tuples hold entries of equal priority inserted earlier.
func TestDisjointStopsAtFirstHit(t *testing.T) {
	c := NewDisjoint()
	c.Insert(&Entry{Priority: 0, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 443), Value: 1})
	c.Insert(&Entry{Priority: 0, Match: openflow.NewMatch().Set(openflow.FieldIPDst, 7), Value: 2})
	c.Insert(&Entry{Priority: 0, Match: openflow.NewMatch().Set(openflow.FieldTCPDst, 80), Value: 3})
	res := c.Lookup(tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), 5000, 80), nil)
	if res.Entry == nil || res.Entry.Value != 3 || res.GroupsProbed != 1 {
		t.Fatalf("disjoint lookup: entry %+v after %d groups, want value 3 after 1", res.Entry, res.GroupsProbed)
	}
}

// TestAccumulatorSeesGroupMasks requires an observed lookup to report every
// probed group's fields under the group's masks, plus the protocol fields
// that prove the group's prerequisites.
func TestAccumulatorSeesGroupMasks(t *testing.T) {
	c := New()
	c.Insert(&Entry{Priority: 1, Match: openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, 0, 0, 0)), 8), Value: 1})
	var acc openflow.MaskAccumulator
	p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 1, 1, 1), 1, 2)
	acc.Reset(nil)
	if res := c.Lookup(p, &acc); res.Entry == nil {
		t.Fatal("observed lookup missed")
	}
	observed := map[openflow.Field]uint64{}
	acc.ForEach(func(f openflow.Field, _, mask uint64) { observed[f] = mask })
	want := map[openflow.Field]uint64{
		openflow.FieldIPDst:   0xff000000,
		openflow.FieldEthType: openflow.FieldEthType.FullMask(),
	}
	if !reflect.DeepEqual(observed, want) {
		t.Fatalf("observed masks %#x, want %#x", observed, want)
	}
}

// TestAgainstLinearReference cross-checks the classifier against a brute-force
// highest-priority linear scan on randomized rule sets and traffic.
func TestAgainstLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New()
	var all []*Entry
	for i := 0; i < 200; i++ {
		m := openflow.NewMatch()
		if rng.Intn(2) == 0 {
			m.SetPrefix(openflow.FieldIPDst, uint64(rng.Uint32()), 8*(1+rng.Intn(4)))
		}
		if rng.Intn(2) == 0 {
			m.Set(openflow.FieldTCPDst, uint64(rng.Intn(16)))
		}
		if rng.Intn(4) == 0 {
			m.Set(openflow.FieldIPSrc, uint64(rng.Uint32()&0xff))
		}
		if m.IsEmpty() {
			m.Set(openflow.FieldTCPDst, uint64(rng.Intn(16)))
		}
		e := &Entry{Priority: rng.Intn(50), Match: m, Value: uint32(i)}
		c.Insert(e)
		all = append(all, e)
	}
	for trial := 0; trial < 500; trial++ {
		p := tcpPacket(t, pkt.IPv4(rng.Uint32()&0xff), pkt.IPv4(rng.Uint32()), uint16(rng.Intn(16)), uint16(rng.Intn(16)))
		res := c.Lookup(p, nil)
		// Brute force reference.
		var best *Entry
		for _, e := range all {
			if e.Match.Matches(p, nil) && (best == nil || e.Priority > best.Priority) {
				best = e
			}
		}
		switch {
		case best == nil && res.Entry != nil:
			t.Fatalf("trial %d: classifier found %v, reference missed", trial, res.Entry.Match)
		case best != nil && res.Entry == nil:
			t.Fatalf("trial %d: classifier missed, reference found %v", trial, best.Match)
		case best != nil && res.Entry.Priority != best.Priority:
			t.Fatalf("trial %d: classifier priority %d, reference %d", trial, res.Entry.Priority, best.Priority)
		}
	}
}

func BenchmarkLookup10Groups(b *testing.B) {
	c := New()
	for g := 0; g < 10; g++ {
		for i := 0; i < 100; i++ {
			m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(10, byte(g), byte(i), 0)), 8+g).
				Set(openflow.FieldTCPDst, uint64(g))
			c.Insert(&Entry{Priority: g, Match: m, Value: uint32(g*100 + i)})
		}
	}
	p := tcpPacket(b, 1, pkt.IPv4FromOctets(10, 3, 7, 9), 1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(p, nil)
	}
}
