package core

import (
	"math/rand"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// refPackKey concatenates the masked field values bit by bit, low bit first,
// each field taking its width: the key layout the plan must reproduce exactly
// (the cost model's region addresses are computed from the key words).
func refPackKey(fields []openflow.Field, masks []uint64, m *openflow.Match) hashKey {
	var w [4]uint64
	bit := 0
	for i, f := range fields {
		v, _, _ := m.Get(f)
		v &= masks[i]
		for b := 0; b < int(f.Width()); b++ {
			w[bit>>6] |= (v >> b & 1) << (bit & 63)
			bit++
		}
	}
	return hashKey{W0: w[0], W1: w[1], W2: w[2], W3: w[3]}
}

// TestKeyPlanPacksBitByBit holds the plan to the bit-by-bit concatenation on
// random field lists up to maxKeyBits wide, under random masks, so fields
// land on, across and at the end of every word boundary.
func TestKeyPlanPacksBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		m := openflow.NewMatch()
		width := 0
		for _, i := range rng.Perm(int(openflow.NumFields)) {
			f := openflow.Field(i)
			if width+int(f.Width()) > maxKeyBits || rng.Intn(3) == 0 {
				continue
			}
			width += int(f.Width())
			mask := f.FullMask()
			if rng.Intn(2) == 0 {
				mask &= rng.Uint64() | 1
			}
			m.SetMasked(f, rng.Uint64(), mask)
		}
		fields := m.Fields().Fields()
		if len(fields) == 0 {
			continue
		}
		masks := make([]uint64, len(fields))
		for i, f := range fields {
			_, masks[i], _ = m.Get(f)
			if rng.Intn(4) == 0 { // a global mask narrower than the entry's
				masks[i] &= rng.Uint64()
			}
		}
		if got, want := newKeyPlan(fields, masks).packMatchKey(m), refPackKey(fields, masks, m); got != want {
			t.Fatalf("trial %d, %d bits over %v: plan packed %x, bit by bit %x", trial, width, fields, got, want)
		}
	}
}

var wideFields = [...]openflow.Field{
	openflow.FieldInPort, openflow.FieldEthDst, openflow.FieldEthSrc,
	openflow.FieldIPSrc, openflow.FieldIPDst, openflow.FieldTCPSrc, openflow.FieldTCPDst,
}

// wideFlow is one entry of the four-word hash stage below: its field values
// in wideFields order.
type wideFlow [len(wideFields)]uint64

func (f wideFlow) match() *openflow.Match {
	m := openflow.NewMatch()
	for i, v := range f {
		m.Set(wideFields[i], v)
	}
	return m
}

func (f wideFlow) packet(tb testing.TB) *pkt.Packet {
	tb.Helper()
	frame := pkt.Clone(pkt.NewBuilder(128).TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(f[1]), Src: pkt.MACFromUint64(f[2])},
		pkt.IPv4Opts{Src: pkt.IPv4(f[3]), Dst: pkt.IPv4(f[4])},
		pkt.L4Opts{Src: uint16(f[5]), Dst: uint16(f[6])},
	))
	return &pkt.Packet{Data: frame, InPort: uint32(f[0])}
}

// TestCompiledMultiWordHashKey compiles a compound-hash stage whose key fills
// four words: in_port, eth_dst, eth_src, ip_src, ip_dst, tcp_src and tcp_dst
// make 224 bits, eth_dst straddles the first word boundary and ip_src and
// tcp_src start the third and fourth words.  Every bundled hash stage fits in
// one word, so this is what covers the plan's spill.  The stage must agree
// with the interpreter on hits, on near misses with one bit flipped in each
// field in turn, and across an incremental add and delete.
func TestCompiledMultiWordHashKey(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	flows := make([]wideFlow, 40)
	for i := range flows {
		flows[i] = wideFlow{
			uint64(1 + rng.Intn(4)),
			0x020000000000 | rng.Uint64()&0xffffffffff, 0x020000000000 | rng.Uint64()&0xffffffffff,
			uint64(rng.Uint32()), uint64(rng.Uint32()),
			uint64(rng.Intn(65536)), uint64(rng.Intn(65536)),
		}
	}
	pl := openflow.NewPipeline(8)
	t0 := pl.Table(0)
	for i, f := range flows[:30] {
		t0.AddFlow(100, f.match(), openflow.Apply(openflow.Output(uint32(1+i%7))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if kind, _ := dp.TableTemplate(0); kind != TemplateHash {
		t.Fatalf("table 0 compiled to %v, want the compound hash", kind)
	}
	plan := dp.trampolines[0].load().(*hashTable).plan
	if last := plan[len(plan)-1]; keyWidth(wideFields[:]) != 224 || plan[1].word != 0 || plan[1].off+48 <= 64 || last.word != 3 {
		t.Fatalf("plan %+v does not straddle a word boundary and reach the fourth word", plan)
	}

	var packets []*pkt.Packet
	for _, f := range flows { // 30 hits, 10 misses
		packets = append(packets, f.packet(t))
		for i, field := range wideFields { // near misses: one bit of field i flipped
			miss := f
			miss[i] ^= 1 << rng.Intn(int(field.Width()))
			packets = append(packets, miss.packet(t))
		}
	}
	check := func(when string) {
		t.Helper()
		agreesWithInterpreter(t, dp, when, packets...)
		in := openflow.NewInterpreter(dp.Pipeline())
		in.UpdateCounters = false
		ps := make([]*pkt.Packet, len(packets))
		for i, p := range packets {
			ps[i] = clonePacket(p)
		}
		vs := make([]openflow.Verdict, len(ps))
		dp.ProcessBurst(ps, vs)
		for i, p := range packets {
			var ref openflow.Verdict
			in.Process(clonePacket(p), &ref, nil)
			if !ref.Equivalent(&vs[i]) {
				t.Fatalf("%s, burst packet %d: interpreter=%v eswitch=%v", when, i, ref.String(), vs[i].String())
			}
		}
	}
	check("compiled")

	added := flows[35]
	if err := dp.AddFlow(0, openflow.NewEntry(100, added.match(), openflow.Apply(openflow.Output(8)))); err != nil {
		t.Fatal(err)
	}
	if dp.IncrementalUpdates() != 1 {
		t.Fatalf("the add was not served incrementally (rebuilds %d)", dp.Rebuilds())
	}
	var v openflow.Verdict
	if dp.Process(added.packet(t), &v); !v.Forwarded() || v.OutPorts[0] != 8 {
		t.Fatalf("added flow not served: %v", v.String())
	}
	check("after the add")

	if n, err := dp.DeleteFlow(0, flows[3].match(), -1); n != 1 || err != nil {
		t.Fatalf("delete removed %d entries, %v", n, err)
	}
	if dp.IncrementalUpdates() != 2 {
		t.Fatalf("the delete was not served incrementally (rebuilds %d)", dp.Rebuilds())
	}
	check("after the delete")
}
