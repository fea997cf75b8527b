package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// TestHashTail holds the compound hash's direct-code tail to its contract on
// seeded random tables: a band of 8–64 entries over one to three fields under
// random masks, and up to DirectCodeMaxEntries+1 entries of other shapes at
// random priorities, some of them above the band.
//   - The analysis accepts the tail iff it has at most DirectCodeMaxEntries
//     entries and sits strictly below the band.
//   - Process, ProcessBurst and Trace agree with the interpreter on random
//     frames, frames without the band's protocols among them.
//   - Band and tail adds and deletes are incremental: Rebuilds stays flat.
//   - A tail-shaped add above the band rebuilds, and the re-analysis leaves
//     the hash template.
func TestHashTail(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { hashTailCase(t, seed) })
	}
}

func hashTailCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opts := DefaultOptions()
	l4 := openflow.FieldTCPDst
	if rng.Intn(2) == 0 {
		l4 = openflow.FieldUDPDst
	}
	pool := []openflow.Field{openflow.FieldInPort, openflow.FieldEthSrc, openflow.FieldVLANID,
		openflow.FieldIPSrc, openflow.FieldIPDst, l4}
	// Field values come from a few bases per field, or anywhere.
	value := func(f openflow.Field) uint64 {
		if rng.Intn(3) == 0 {
			return rng.Uint64() & f.FullMask()
		}
		base := map[openflow.Field]uint64{
			openflow.FieldInPort: 1, openflow.FieldEthSrc: 0x0a, openflow.FieldVLANID: 10,
			openflow.FieldIPSrc: 0x0a000001, openflow.FieldIPDst: 0xc0000201, l4: 22,
		}[f]
		return base + uint64(rng.Intn(4))<<uint(rng.Intn(int(f.Width())))&f.FullMask()
	}
	// Masks keep at least eight bits, so a band of 64 entries finds 64 keys.
	mask := func(f openflow.Field) uint64 {
		full := f.FullMask()
		switch rng.Intn(3) {
		case 1: // a prefix
			return full &^ (full >> uint(8+rng.Intn(int(f.Width())-7)))
		case 2:
			if m := rng.Uint64() & full; bits.OnesCount64(m) >= 8 {
				return m
			}
		}
		return full
	}
	match := func(fields []openflow.Field, masks map[openflow.Field]uint64) *openflow.Match {
		m := openflow.NewMatch()
		for _, f := range fields {
			m.SetMasked(f, value(f), masks[f])
		}
		return m
	}
	out := func() openflow.Instructions {
		if rng.Intn(4) == 0 {
			return openflow.Apply(openflow.Drop())
		}
		return openflow.Apply(openflow.Output(uint32(1 + rng.Intn(4))))
	}

	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	bandFields := pool[:1+rng.Intn(3)]
	bandMasks := map[openflow.Field]uint64{}
	var bandSet openflow.FieldSet
	for _, f := range bandFields {
		bandMasks[f] = mask(f)
		bandSet = bandSet.Add(f)
	}
	inBand := func(m *openflow.Match) bool {
		if m.Fields() != bandSet {
			return false
		}
		for _, f := range bandFields {
			if _, mk, _ := m.Get(f); mk != bandMasks[f] {
				return false
			}
		}
		return true
	}
	// newBand draws a band entry under a key no other band entry holds.
	keys := map[string]bool{}
	newBand := func(lo, hi int) *openflow.FlowEntry {
		for {
			m := match(bandFields, bandMasks)
			if !keys[m.String()] {
				keys[m.String()] = true
				return openflow.NewEntry(lo+rng.Intn(hi-lo), m, out())
			}
		}
	}
	// newTail draws an entry of any other shape: a catch-all, or one or two
	// fields of the pool under masks of their own.
	newTail := func(prio int) *openflow.FlowEntry {
		for {
			m := openflow.NewMatch()
			if rng.Intn(3) != 0 {
				fields := append([]openflow.Field(nil), pool...)
				rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
				masks := map[openflow.Field]uint64{}
				for _, f := range fields {
					masks[f] = mask(f)
				}
				m = match(fields[:1+rng.Intn(2)], masks)
			}
			if !inBand(m) {
				return openflow.NewEntry(prio, m, out())
			}
		}
	}

	pl := openflow.NewPipeline(4)
	t0 := pl.Table(0)
	for n := 8 + rng.Intn(57); n > 0; n-- {
		t0.Add(newBand(100, 150))
	}
	for n := rng.Intn(opts.DirectCodeMaxEntries + 2); n > 0; n-- {
		prio := rng.Intn(100)
		if rng.Intn(5) == 0 {
			prio = rng.Intn(200)
		}
		t0.Add(newTail(prio))
	}
	bandLo, tailTop, tailN := 150, -1, 0
	var bandEntries, tailEntries []*openflow.FlowEntry
	for _, e := range t0.Entries() {
		if inBand(e.Match) {
			bandLo = min(bandLo, e.Priority)
			bandEntries = append(bandEntries, e)
		} else {
			tailTop = max(tailTop, e.Priority)
			tailN++
			tailEntries = append(tailEntries, e)
		}
	}

	// The analysis.
	_, tail, ok := hashPrerequisite(t0.Entries())
	accepted := ok && len(tail) <= opts.DirectCodeMaxEntries
	if want := tailN <= opts.DirectCodeMaxEntries && tailTop < bandLo; accepted != want || accepted && len(tail) != tailN {
		t.Fatalf("%d band entries from %d, %d tail entries up to %d: analysis accepts %v with a tail of %d, want %v",
			len(bandEntries), bandLo, tailN, tailTop, accepted, len(tail), want)
	}
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := dp.RegisterWorker().(*Worker)
	defer dp.UnregisterWorker(w)
	kind, _ := dp.TableTemplate(0)
	// LPM comes first when the band is one address field and the tail fits
	// it; otherwise an accepted table is a compound hash.
	if kind == TemplateHash && !accepted || accepted && kind != TemplateHash && kind != TemplateLPM {
		t.Fatalf("accepted %v, compiled to %v", accepted, kind)
	}

	// Frames: random header values, or an installed entry's values under
	// its mask and random ones outside it; mostly of the band's L4
	// protocol, the rest of the other one or ARP.
	frame := func() ([]byte, uint32) {
		vals := map[openflow.Field]uint64{}
		for _, f := range pool {
			vals[f] = value(f)
		}
		if es := dp.Pipeline().Table(0).Entries(); rng.Intn(4) != 0 && len(es) > 0 {
			m := es[rng.Intn(len(es))].Match
			for _, f := range m.Fields().Fields() {
				v, mk, _ := m.Get(f)
				vals[f] = v | rng.Uint64()&^mk&f.FullMask()
			}
		}
		eth := pkt.EthernetOpts{Src: pkt.MACFromUint64(vals[openflow.FieldEthSrc]), Dst: pkt.MACFromUint64(0x1)}
		if rng.Intn(4) != 0 {
			eth.VLAN, eth.VLANPresent = uint16(vals[openflow.FieldVLANID]), true
		}
		ip := pkt.IPv4Opts{Src: pkt.IPv4(vals[openflow.FieldIPSrc]), Dst: pkt.IPv4(vals[openflow.FieldIPDst])}
		ports := pkt.L4Opts{Src: uint16(rng.Intn(65536)), Dst: uint16(vals[l4])}
		b := pkt.NewBuilder(128)
		var data []byte
		switch k := rng.Intn(4); {
		case k == 0:
			data = b.ARPPacket(eth, 1, ip.Src, ip.Dst)
		case k == 1 || l4 == openflow.FieldUDPDst:
			data = b.UDPPacket(eth, ip, ports)
		default:
			data = b.TCPPacket(eth, ip, ports)
		}
		return pkt.Clone(data), uint32(vals[openflow.FieldInPort])
	}
	agree := func(when string) {
		t.Helper()
		in := openflow.NewInterpreter(dp.Pipeline())
		in.UpdateCounters = false
		const n = 64
		packets := make([]pkt.Packet, n)
		ps := make([]*pkt.Packet, n)
		vs := make([]openflow.Verdict, n)
		for i := range packets {
			data, port := frame()
			packets[i] = pkt.Packet{Data: data, InPort: port}
			ps[i] = &packets[i]
			var want, got openflow.Verdict
			in.Process(&pkt.Packet{Data: data, InPort: port}, &want, nil)
			dp.Process(&pkt.Packet{Data: data, InPort: port}, &got)
			tr := dp.Trace(&pkt.Packet{Data: data, InPort: port})
			if !sameVerdict(&got, &want) || !sameVerdict(&tr.Verdict, &want) {
				t.Fatalf("%s: frame %d: Process %s, Trace %s, interpreter %s\n%s", when, i, &got, &tr.Verdict, &want, tr)
			}
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		for i := range packets {
			var want openflow.Verdict
			in.Process(&pkt.Packet{Data: packets[i].Data, InPort: packets[i].InPort}, &want, nil)
			if !sameVerdict(&vs[i], &want) {
				t.Fatalf("%s: frame %d: ProcessBurst %s, interpreter %s", when, i, &vs[i], &want)
			}
		}
	}
	agree("compiled")
	if kind != TemplateHash {
		return
	}

	// Incremental updates: a band entry above the tail, a tail entry below
	// the band while the tail has room, and a delete of each.
	rebuilds := dp.Rebuilds()
	incremental := func(what string, mod func() error) {
		t.Helper()
		if err := mod(); err != nil {
			t.Fatal(err)
		}
		if k, _ := dp.TableTemplate(0); k != TemplateHash || dp.Rebuilds() != rebuilds {
			t.Fatalf("%s: template %v after %d rebuilds, want the hash after none", what, k, dp.Rebuilds()-rebuilds)
		}
		agree(what)
	}
	band := newBand(bandLo, 150)
	incremental(fmt.Sprintf("band add %v", band), func() error { return dp.AddFlow(0, band) })
	if tailN < opts.DirectCodeMaxEntries {
		e := newTail(rng.Intn(bandLo))
		incremental(fmt.Sprintf("tail add %v", e), func() error { return dp.AddFlow(0, e) })
		tailEntries = append(tailEntries, e)
	}
	victim := bandEntries[rng.Intn(len(bandEntries))]
	incremental(fmt.Sprintf("band delete %v", victim), func() error {
		_, err := dp.DeleteFlow(0, victim.Match, victim.Priority)
		return err
	})
	if len(tailEntries) > 0 {
		victim := tailEntries[rng.Intn(len(tailEntries))]
		incremental(fmt.Sprintf("tail delete %v", victim), func() error {
			_, err := dp.DeleteFlow(0, victim.Match, victim.Priority)
			return err
		})
	}

	// A tail-shaped entry above the band: the table is rebuilt and leaves
	// the hash template.
	above := newTail(200 + rng.Intn(10))
	if err := dp.AddFlow(0, above); err != nil {
		t.Fatal(err)
	}
	if k, _ := dp.TableTemplate(0); k == TemplateHash || dp.Rebuilds() != rebuilds+1 {
		t.Fatalf("add %v above the band: template %v after %d rebuilds, want another after one", above, k, dp.Rebuilds()-rebuilds)
	}
	agree(fmt.Sprintf("add %v above the band", above))
}
