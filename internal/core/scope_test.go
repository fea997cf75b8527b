package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// Tests of scoped cache invalidation (scope.go): a flow-mod must stale
// exactly the memoized verdicts it can change — never fewer (the
// differential test against the interpreter), and, where the analysis
// applies, not more (the pinning test on the counters).

// scopeRig drives one datapath with the verdict cache configured, and the
// interpreter over its declarative pipeline as the oracle, over a fixed set
// of frames.
type scopeRig struct {
	t       testing.TB
	dp      *Datapath
	w       *Worker
	frames  [][]byte
	inPorts []uint32
	adds    int
	// aliasW are two more workers, whose caches only ever see aliases of the
	// frames (checkAliases), each pair in one order.
	aliasW [2]*Worker
	// metered, when set (meteredTwin), is the same pipeline compiled again
	// without caches under a cycle meter; it receives every mod randomMod
	// makes and check runs it, through Process, as one more executor.
	metered *Datapath
	// baseline, when set (ovsTwin), is the flow-caching baseline switch over
	// the same pipeline, fed the same mods and checked the same way.
	baseline *ovs.Switch
	// extra, when set, draws the instruction kinds randomMod adds beyond its
	// original seven (write-actions, clear-actions, write-metadata, DSCP and
	// PCP rewrites, flood, controller output, output-then-drop), from a
	// source of its own so the rest of the mod sequence is what it was.
	extra *rand.Rand
}

// modTarget is what a twin needs to follow the rig's flow-mods.
type modTarget interface {
	AddFlow(openflow.TableID, *openflow.FlowEntry) error
	DeleteFlow(openflow.TableID, *openflow.Match, int) (int, error)
}

// twins returns the rig's twins, which every mod is mirrored to.
func (r *scopeRig) twins() []modTarget {
	var ts []modTarget
	if r.metered != nil {
		ts = append(ts, r.metered)
	}
	if r.baseline != nil {
		ts = append(ts, r.baseline)
	}
	return ts
}

// newScopeRig compiles a copy of pl: the datapath takes its pipeline over,
// and the rig's mods must not reach pl, which a rig case shares between seeds.
func newScopeRig(t testing.TB, pl *openflow.Pipeline, decompose bool, entries int, frames [][]byte, inPorts []uint32) *scopeRig {
	t.Helper()
	opts := DefaultOptions()
	opts.Decompose = decompose
	opts.FlowCache = entries
	dp, err := Compile(pl.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &scopeRig{t: t, dp: dp, frames: frames, inPorts: inPorts}
	for _, w := range []**Worker{&r.w, &r.aliasW[0], &r.aliasW[1]} {
		*w = dp.RegisterWorker().(*Worker)
		t.Cleanup(func() { dp.UnregisterWorker(*w) })
	}
	return r
}

// modPipeline is the pipeline whose tables the rig's flow-mods name: on a
// datapath the decomposer rewrote, the source it keeps; otherwise the one it
// executes.
func (r *scopeRig) modPipeline() *openflow.Pipeline { return r.dp.source }

// walk returns the tables of modPipeline that frame i's walk visits.  A
// decomposed walk also visits derived tables, which no mod names.
func (r *scopeRig) walk(i int) []openflow.TableID {
	pl := r.modPipeline()
	var path []openflow.TableID
	for _, st := range r.dp.Trace(&pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}).Steps {
		if pl.Table(st.Table) != nil {
			path = append(path, st.Table)
		}
	}
	return path
}

// meteredTwin gives the rig its metered datapath, compiled from a copy of the
// pipeline the mods name (decomposition numbers its tables differently from
// one run to the next) and decomposed as the rig's is, so its walks visit as
// many tables.  Each switch takes its pipeline over, and the twin follows the
// rig's mods on its own copy.
func (r *scopeRig) meteredTwin() {
	r.t.Helper()
	opts := DefaultOptions()
	opts.Decompose = r.dp.opts.Decompose
	opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	dp, err := Compile(r.modPipeline().Clone(), opts)
	if err != nil {
		r.t.Fatal(err)
	}
	r.metered = dp
}

// ovsTwin gives the rig its baseline switch, over a copy of the pipeline the
// mods name for the same reasons.
func (r *scopeRig) ovsTwin() {
	r.t.Helper()
	sw, err := ovs.New(r.modPipeline().Clone(), ovs.DefaultOptions())
	if err != nil {
		r.t.Fatal(err)
	}
	r.baseline = sw
}

// traceFrames takes n frames of the use case's trace, the same frames again
// arriving on another port (traffic the pipeline mostly refuses), and
// siblings that differ only in the L4 source port — flows that share a cache
// key until a mod matches on that port.
func traceFrames(uc *workload.UseCase, n int) (frames [][]byte, inPorts []uint32) {
	tr := uc.Trace(n)
	for i := 0; i < n; i++ {
		f, port := tr.Frame(i)
		frames, inPorts = append(frames, f), append(inPorts, port)
	}
	for i := 0; i < n; i += 4 {
		frames = append(frames, frames[i])
		inPorts = append(inPorts, inPorts[i]%uint32(uc.Pipeline.NumPorts)+1)
		p := pkt.Packet{Data: frames[i]}
		pkt.ParseL4(&p)
		if off := p.Headers.L4Off; off > 0 && p.Headers.Has(pkt.ProtoTCP) {
			for sib := 1; sib <= 2; sib++ {
				f := pkt.Clone(frames[i])
				f[off+1] ^= byte(sib) // checksums are not verified on this path
				frames, inPorts = append(frames, f), append(inPorts, inPorts[i])
			}
		}
	}
	return frames, inPorts
}

// check forwards the picked frames through the worker, in bursts, and
// requires each verdict, the rewritten headers and the metadata to equal the
// interpreter's over the datapath's current declarative pipeline.  Every
// other per-packet entry point sees the same frames: Trace
// must claim the interpreter's verdict, headers and metadata in as many steps
// as the verdict counts tables, and the metered twin's Process must
// give the worker's verdicts and charge its meter for them.  The baseline
// switch, where the rig has one, must give the interpreter's outcome
// (Verdict.Equivalent), punt attribution, headers and metadata too.  Punt
// attribution is checked against the interpreter over the pipeline the mods
// name: a decomposed datapath's derived stages are no table the controller
// knows, so their punts name the source table they came from.
func (r *scopeRig) check(label string, pick func(i int) bool) {
	r.t.Helper()
	in := openflow.NewInterpreter(r.dp.Pipeline())
	in.UpdateCounters = false
	oracle := r.puntOracle()
	punt := func(i int) *openflow.Verdict { return oracle(r.frames[i], r.inPorts[i]) }
	layer := r.dp.ParserLayer()
	const burst = 32
	var idx []int
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, 0, burst)
	vs := make([]openflow.Verdict, burst)
	flush := func() {
		r.t.Helper()
		r.w.Enter()
		r.w.ProcessBurst(ps, vs[:len(ps)])
		r.w.Exit()
		if r.metered != nil {
			before := r.metered.Meter().Packets()
			for j, i := range idx {
				mp := pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
				var mv openflow.Verdict
				r.metered.Process(&mp, &mv)
				if !sameVerdict(&mv, &vs[j]) || mp.Headers != packets[j].Headers || mp.Metadata != packets[j].Metadata {
					r.t.Fatalf("%s: frame %d: metered Process says %s, headers %+v; the worker %s, headers %+v",
						label, i, &mv, mp.Headers, &vs[j], packets[j].Headers)
				}
			}
			if got := r.metered.Meter().Packets() - before; got != uint64(len(idx)) {
				r.t.Fatalf("%s: %d frames through the metered twin, %d metered", label, len(idx), got)
			}
		}
		if r.baseline != nil {
			for _, i := range idx {
				bp := pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
				var bv openflow.Verdict
				r.baseline.Process(&bp, &bv)
				// The baseline parses every frame to L4, so its oracle does too.
				ref := pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
				var want openflow.Verdict
				pkt.ParseL4(&ref)
				in.Process(&ref, &want, nil)
				sp := punt(i)
				if !bv.Equivalent(&want) || bp.Headers != ref.Headers || bp.Metadata != ref.Metadata || (want.ToController &&
					(bv.PuntReason != sp.PuntReason || bv.PuntTable != sp.PuntTable)) {
					r.t.Fatalf("%s: frame %d: the baseline says %s (punt %s at table %d) and left headers %+v metadata %#x; interpreter %s (punt %s at table %d), %+v %#x",
						label, i, &bv, bv.PuntReason, bv.PuntTable, bp.Headers, bp.Metadata, &want, sp.PuntReason, sp.PuntTable, ref.Headers, ref.Metadata)
				}
			}
		}
		for j, i := range idx {
			ref := pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
			var want openflow.Verdict
			pkt.ParseTo(&ref, layer)
			in.Process(&ref, &want, nil)
			got := &vs[j]
			if !sameVerdict(got, &want) {
				r.t.Fatalf("%s: frame %d: datapath says %s (%+v), interpreter %s (%+v)\n%s",
					label, i, got, *got, &want, want, r.dp.Trace(&pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}))
			}
			if sp := punt(i); want.ToController && (got.PuntReason != sp.PuntReason || got.PuntTable != sp.PuntTable) {
				r.t.Fatalf("%s: frame %d: datapath punts %s at table %d, the source pipeline's interpreter %s at table %d\n%s",
					label, i, got.PuntReason, got.PuntTable, sp.PuntReason, sp.PuntTable, r.dp.Trace(&pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}))
			}
			if packets[j].Headers != ref.Headers || packets[j].Metadata != ref.Metadata {
				r.t.Fatalf("%s: frame %d: datapath left headers %+v metadata %#x, interpreter %+v %#x",
					label, i, packets[j].Headers, packets[j].Metadata, ref.Headers, ref.Metadata)
			}
			traced := pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
			tr := r.dp.Trace(&traced)
			if !sameVerdict(&tr.Verdict, &want) || traced.Headers != ref.Headers || traced.Metadata != ref.Metadata || len(tr.Steps) != tr.Verdict.Tables {
				r.t.Fatalf("%s: frame %d: interpreter says %s, headers %+v metadata %#x; Trace left headers %+v metadata %#x and says\n%s",
					label, i, &want, ref.Headers, ref.Metadata, traced.Headers, traced.Metadata, tr)
			}
		}
		idx, ps = idx[:0], ps[:0]
	}
	for i := range r.frames {
		if !pick(i) {
			continue
		}
		j := len(ps)
		packets[j] = pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
		ps, idx = append(ps, &packets[j]), append(idx, i)
		if len(ps) == burst {
			flush()
		}
	}
	if len(ps) > 0 {
		flush()
	}
}

func all(int) bool { return true }

// puntOracle returns the interpreter over the pipeline the mods name, as a
// function from a frame to its verdict: the punt attribution every executor
// must give.  A decomposed datapath's derived stages are no table the
// controller knows, so their punts name the source table they came from.
func (r *scopeRig) puntOracle() func(data []byte, inPort uint32) *openflow.Verdict {
	src := openflow.NewInterpreter(r.modPipeline())
	src.UpdateCounters = false
	return func(data []byte, inPort uint32) *openflow.Verdict {
		ref := pkt.Packet{Data: data, InPort: inPort}
		var v openflow.Verdict
		pkt.ParseL4(&ref)
		src.Process(&ref, &v, nil)
		return &v
	}
}

// writtenValues collects, per field, the values the pipeline's actions write
// (set-field, push_vlan): a packet that already carries one leaves no trace
// of the write in its headers, so an entry it installs must still replay it.
func (r *scopeRig) writtenValues() map[openflow.Field][]uint64 {
	written := map[openflow.Field][]uint64{}
	for _, t := range r.dp.Pipeline().Tables() {
		for _, e := range t.Entries() {
			for _, list := range []openflow.ActionList{e.Instructions.ApplyActions, e.Instructions.WriteActions} {
				for _, a := range list {
					if a.Type == openflow.ActionSetField || a.Type == openflow.ActionPushVLAN {
						written[a.Field] = append(written[a.Field], a.Value)
					}
				}
			}
		}
	}
	return written
}

// keyedBits returns the bits of field f the key mask km holds.
func keyedBits(km *flowKey, f openflow.Field) uint64 {
	l := keyLayout[f]
	return km[l.word] >> l.shift & f.FullMask()
}

// alias returns a copy of frame i, and an ingress port for it, that agrees
// with the frame on every bit of the datapath's compiled cache key and
// differs outside it in the bits flip draws — or, for a field the key does
// not carry at all, half the time holds a value the pipeline itself writes
// there.  The two are one cache entry, so whichever arrives first installs
// the verdict the other is served.  Protocol presence and parse depth are
// always in the key, so the frame's shape is left alone; checksums are not
// verified on this path.
func (r *scopeRig) alias(i int, flip func() uint64, written map[openflow.Field][]uint64) ([]byte, uint32) {
	km := r.dp.snap.Load().keyMask
	f := pkt.Clone(r.frames[i])
	p := pkt.Packet{Data: f}
	pkt.ParseL4(&p)
	h := &p.Headers
	// mut rewrites field fd, the width bytes at off, outside its keyed bits.
	mut := func(fd openflow.Field, off, width int) {
		keyed := keyedBits(&km, fd)
		x, set := flip()&^keyed, uint64(0)
		if vals := written[fd]; keyed&fd.FullMask() == 0 && len(vals) > 0 && x&1 == 0 {
			x, set = 0, vals[int(x>>1%uint64(len(vals)))]
		}
		for b := 0; b < width; b++ {
			at := &f[off+width-1-b]
			if set != 0 {
				*at = byte(set >> (8 * b))
			}
			*at ^= byte(x >> (8 * b))
		}
	}
	port := r.inPorts[i]
	if keyedBits(&km, openflow.FieldInPort) == 0 {
		port = 1 + uint32(flip()%uint64(r.dp.Pipeline().NumPorts))
	}
	mut(openflow.FieldEthDst, h.L2Off, 6)
	mut(openflow.FieldEthSrc, h.L2Off+6, 6)
	if h.Has(pkt.ProtoVLAN) {
		mut(openflow.FieldVLANID, h.L2Off+14, 2)
	}
	if h.Has(pkt.ProtoIPv4) {
		mut(openflow.FieldIPSrc, h.L3Off+12, 4)
		mut(openflow.FieldIPDst, h.L3Off+16, 4)
		if h.L4Off > 0 && (h.Has(pkt.ProtoTCP) || h.Has(pkt.ProtoUDP)) {
			mut(openflow.FieldTCPSrc, h.L4Off, 2)
			mut(openflow.FieldTCPDst, h.L4Off+2, 2)
		}
	}
	return f, port
}

// checkAliases draws two aliases of each picked frame and sends them back to
// back, one order through each of the rig's alias workers — whose caches hold
// nothing but what earlier aliases installed, under whatever the key was then
// — requiring the interpreter's verdict, headers and metadata every time,
// and the source pipeline's punt attribution (puntOracle).
func (r *scopeRig) checkAliases(label string, picks []int, flip func() uint64) {
	r.t.Helper()
	in := openflow.NewInterpreter(r.dp.Pipeline())
	in.UpdateCounters = false
	punt := r.puntOracle()
	layer := r.dp.ParserLayer()
	var sides [2]struct {
		frames [][]byte
		ports  []uint32
	}
	written := r.writtenValues()
	for _, i := range picks {
		for s := range sides {
			f, port := r.alias(i, flip, written)
			sides[s].frames, sides[s].ports = append(sides[s].frames, f), append(sides[s].ports, port)
		}
	}
	packets := make([]pkt.Packet, MaxBurst)
	ps := make([]*pkt.Packet, MaxBurst)
	vs := make([]openflow.Verdict, MaxBurst)
	for order, w := range r.aliasW {
		for _, s := range []int{order, 1 - order} {
			side := &sides[s]
			for base := 0; base < len(picks); base += MaxBurst {
				n := min(MaxBurst, len(picks)-base)
				for j := 0; j < n; j++ {
					packets[j] = pkt.Packet{Data: side.frames[base+j], InPort: side.ports[base+j]}
					ps[j] = &packets[j]
				}
				w.Enter()
				w.ProcessBurst(ps[:n], vs[:n])
				w.Exit()
				for j := 0; j < n; j++ {
					ref := pkt.Packet{Data: side.frames[base+j], InPort: side.ports[base+j]}
					var want openflow.Verdict
					pkt.ParseTo(&ref, layer)
					in.Process(&ref, &want, nil)
					sp := punt(side.frames[base+j], side.ports[base+j])
					if got := &vs[j]; !sameVerdict(got, &want) || packets[j].Headers != ref.Headers || packets[j].Metadata != ref.Metadata ||
						(want.ToController && (got.PuntReason != sp.PuntReason || got.PuntTable != sp.PuntTable)) {
						r.t.Fatalf("%s: alias %d of frame %d, sent %v on port %d: datapath says %s (punt %s at table %d) and left headers %+v metadata %#x; interpreter %s (punt %s at table %d), %+v %#x\nkey: %s",
							label, s, picks[base+j], order != s, side.ports[base+j], got, got.PuntReason, got.PuntTable, packets[j].Headers, packets[j].Metadata,
							&want, sp.PuntReason, sp.PuntTable, ref.Headers, ref.Metadata, r.dp.snap.Load().keyMask)
					}
				}
			}
		}
	}
}

// widen installs an entry that reads bits the compiled key does not hold yet
// — an exact match, on the first of a few fields the key does not carry
// whole, of frame 0's value, or a /32 on its destination — and requires the
// flow-mod to have been logged as a barrier.  It reports whether the key grew
// (a rig may already read every bit the mod does).
func (r *scopeRig) widen(prefix bool) (what string, widened bool) {
	r.t.Helper()
	wire := pkt.Packet{Data: r.frames[0], InPort: r.inPorts[0]}
	pkt.ParseTo(&wire, pkt.LayerL4)
	m := openflow.NewMatch()
	if prefix {
		m.SetPrefix(openflow.FieldIPDst, uint64(wire.Headers.IPDst), 32)
	} else {
		for _, f := range []openflow.Field{openflow.FieldTCPDst, openflow.FieldEthSrc, openflow.FieldEthDst} {
			if km := r.dp.snap.Load().keyMask; keyedBits(&km, f) != f.FullMask() {
				m.Set(f, openflow.Extract(&wire, f))
				break
			}
		}
	}
	// Where the frame's walk ends, so the entry is live, and at a priority of
	// its own above every other entry's (randomMod's top band is 20000).
	path := r.walk(0)
	tid := path[len(path)-1]
	before, flushes := r.dp.snap.Load().keyMask, r.dp.FlowCacheStats().Flushes
	r.adds++
	e := openflow.NewEntry(30000+r.adds, m, openflow.Apply(openflow.Output(1)))
	for _, dp := range append(r.twins(), r.dp) {
		if err := dp.AddFlow(tid, e.Clone()); err != nil {
			r.t.Fatal(err)
		}
	}
	widened = r.dp.snap.Load().keyMask != before
	if widened && r.dp.FlowCacheStats().Flushes != flushes+1 {
		r.t.Fatalf("add %v widened the key from %s to %s without a barrier", e, before, r.dp.snap.Load().keyMask)
	}
	return fmt.Sprintf("widen table %d %v", tid, e), widened
}

// randomMod applies one seeded flow-mod: a delete of an installed entry
// (which uncovers whatever it shadowed), a replace in place of one, or an
// add whose match is drawn from the fields of a live frame.  Two kinds of add
// are aimed: one in the last table of a frame's walk, on a field the walk
// rewrote, with the rewritten value — the probe sees the wire value, so
// comparing the two would wrongly clear the flow — and one on a frame's L4
// source port alone, which splits a cache key between sibling flows.  It
// returns a description for failure messages.
func (r *scopeRig) randomMod(rng *rand.Rand) string {
	pl := r.modPipeline()
	ids := pl.TableIDs()
	tid := ids[rng.Intn(len(ids))]
	var victim *openflow.FlowEntry
	if es := pl.Table(tid).Entries(); len(es) > 0 {
		victim = es[rng.Intn(len(es))]
	}
	base := func(tid openflow.TableID) openflow.Instructions {
		out := openflow.Output(uint32(1 + rng.Intn(pl.NumPorts)))
		switch rng.Intn(7) {
		case 0:
			return openflow.Apply(openflow.Drop())
		case 1:
			return openflow.Apply(openflow.SetField(openflow.FieldIPDst, uint64(0xc6336400+rng.Intn(4))), out)
		case 2:
			return openflow.Apply(openflow.SetField(openflow.FieldTCPDst, uint64(8000+rng.Intn(2))), openflow.DecTTL(), out)
		case 3, 4:
			// Continue at a later table — one past the last creates it.
			next := ids[len(ids)-1] + 1
			if later := ids[rng.Intn(len(ids))]; later > tid {
				next = later
			}
			ins := openflow.Goto(next)
			switch rng.Intn(4) {
			case 0:
				ins.ApplyActions = openflow.ActionList{openflow.SetField(openflow.FieldEthDst, uint64(0x020000000100+rng.Intn(2)))}
			case 1:
				ins.ApplyActions = openflow.ActionList{openflow.PushVLAN(uint16(200 + rng.Intn(2)))}
			case 2:
				ins.ApplyActions = openflow.ActionList{openflow.PopVLAN()}
			}
			return ins
		default:
			return openflow.Apply(out)
		}
	}
	instructions := func(tid openflow.TableID) openflow.Instructions {
		ins := base(tid)
		if r.extra != nil {
			r.enrich(&ins, pl.NumPorts)
		}
		return ins
	}
	// add installs an entry at priority prio.  Generated entries share
	// priorities, so overlapping ones tie and the earliest installed must
	// win, as in the interpreter; a replace reuses its victim's priority.
	add := func(kind string, tid openflow.TableID, prio int, m *openflow.Match, ins openflow.Instructions) string {
		e := openflow.NewEntry(prio, m, ins)
		for _, tw := range r.twins() {
			if err := tw.AddFlow(tid, e.Clone()); err != nil {
				r.t.Fatal(err)
			}
		}
		if err := r.dp.AddFlow(tid, e); err != nil {
			r.t.Fatal(err)
		}
		return fmt.Sprintf("%s table %d %v", kind, tid, e)
	}
	bands := []int{1000, 5000, 20000}
	// sample parses a random frame and returns it before and after its walk,
	// with the tables the walk visited.
	sample := func() (wire, walked pkt.Packet, path []openflow.TableID) {
		i := rng.Intn(len(r.frames))
		wire = pkt.Packet{Data: r.frames[i], InPort: r.inPorts[i]}
		pkt.ParseTo(&wire, pkt.LayerL4)
		path = r.walk(i)
		walked = wire
		var v openflow.Verdict
		openflow.NewInterpreter(pl).Process(&walked, &v, nil)
		return wire, walked, path
	}
	k := rng.Intn(20)
	switch {
	case k < 2:
		wire, walked, path := sample()
		for _, f := range []openflow.Field{openflow.FieldVLANID, openflow.FieldIPSrc, openflow.FieldIPDst, openflow.FieldEthDst, openflow.FieldTCPDst} {
			if was, is := openflow.Extract(&wire, f), openflow.Extract(&walked, f); was != is && len(path) > 1 {
				last := path[len(path)-1]
				return add("add-on-rewritten-field", last, bands[2], openflow.NewMatch().Set(f, is), instructions(last))
			}
		}
	case k < 4:
		if wire, _, path := sample(); wire.Headers.Has(pkt.ProtoTCP) {
			at := path[rng.Intn(len(path))]
			return add("add-on-l4-source", at, bands[2],
				openflow.NewMatch().Set(openflow.FieldTCPSrc, uint64(wire.Headers.L4Src)), instructions(at))
		}
	}
	switch {
	case k < 9 && victim != nil:
		prio := victim.Priority
		if rng.Intn(4) == 0 {
			prio = -1
		}
		n, err := r.dp.DeleteFlow(tid, victim.Match.Clone(), prio)
		if err != nil {
			r.t.Fatal(err)
		}
		for _, tw := range r.twins() {
			if tn, err := tw.DeleteFlow(tid, victim.Match.Clone(), prio); err != nil || tn != n {
				r.t.Fatalf("a twin removed %d entries (%v), the datapath %d", tn, err, n)
			}
		}
		return fmt.Sprintf("delete table %d %v (priority %d, %d removed)", tid, victim.Match, prio, n)
	case k < 12 && victim != nil:
		return add("replace", tid, victim.Priority, victim.Match.Clone(), instructions(tid))
	}
	// Plain add: field values from a frame, before or after its walk.
	from, walked, _ := sample()
	if rng.Intn(2) == 0 {
		from = walked
	}
	h := &from.Headers
	fields := []openflow.Field{openflow.FieldInPort, openflow.FieldEthDst}
	if h.Has(pkt.ProtoVLAN) {
		fields = append(fields, openflow.FieldVLANID)
	}
	if h.Has(pkt.ProtoIPv4) {
		fields = append(fields, openflow.FieldIPSrc, openflow.FieldIPDst, openflow.FieldIPDst, openflow.FieldIPProto)
	}
	if h.Has(pkt.ProtoTCP) {
		fields = append(fields, openflow.FieldTCPDst, openflow.FieldTCPSrc)
	}
	m := openflow.NewMatch()
	for n := 1 + rng.Intn(2); n > 0; n-- {
		f := fields[rng.Intn(len(fields))]
		value := openflow.Extract(&from, f)
		if rng.Intn(5) == 0 {
			value ^= 1 << uint(rng.Intn(int(f.Width())))
		}
		if (f == openflow.FieldIPSrc || f == openflow.FieldIPDst) && rng.Intn(2) == 0 {
			m.SetPrefix(f, value, 8*(1+rng.Intn(3)))
		} else {
			m.Set(f, value)
		}
	}
	return add("add", tid, bands[rng.Intn(3)], m, instructions(tid))
}

// enrich turns most instruction sets randomMod draws, drawing from r.extra,
// into a kind the original draw lacks: write-actions from a small menu (so a
// walk through two tables often writes one field twice), a clear-actions, a
// write-metadata, a DSCP or PCP rewrite, a flood, an output to the
// controller, or an output and a drop ahead of the drawn actions, which then
// never run.
func (r *scopeRig) enrich(ins *openflow.Instructions, numPorts int) {
	x := r.extra
	out := openflow.Output(uint32(1 + x.Intn(numPorts)))
	dscp := openflow.SetField(openflow.FieldIPDSCP, uint64(10+36*x.Intn(2)))
	pcp := openflow.SetField(openflow.FieldVLANPCP, uint64(x.Intn(8)))
	prepend := func(as ...openflow.Action) { ins.ApplyActions = append(as, ins.ApplyActions...) }
	switch x.Intn(16) {
	case 0, 1:
		menu := []openflow.Action{
			openflow.SetField(openflow.FieldEthSrc, uint64(0x020000000200+x.Intn(2))),
			dscp, pcp, openflow.PushVLAN(uint16(300 + x.Intn(2))), openflow.DecTTL(), out,
		}
		for n := 1 + x.Intn(2); n > 0; n-- {
			ins.WriteActions = append(ins.WriteActions, menu[x.Intn(len(menu))])
		}
	case 2:
		ins.ClearActions = true
	case 3:
		ins.WriteMetadata, ins.MetadataMask = x.Uint64(), uint64(0xff)<<(8*x.Intn(8))
	case 4:
		prepend(dscp)
	case 5:
		prepend(pcp)
	case 6:
		ins.ApplyActions = append(ins.ApplyActions, openflow.Flood())
	case 7:
		prepend(openflow.ToController())
	case 8:
		prepend(out, openflow.Drop())
	}
}

// rigCase is one pipeline of the generated-flow-mod suites with its frames.
type rigCase struct {
	name      string
	pl        *openflow.Pipeline
	decompose bool
	frames    func(n int) ([][]byte, []uint32)
}

// rigCases are the gateway, L3, firewall, load-balancer and decomposed ACL
// pipelines TestScopedInvalidationDifferential, FuzzCompiledKeyAliasing and
// FuzzPipelineDifferential mutate; new rigs go last, so the fuzzers' seed
// inputs keep their rigs.  Each rig's first IPv4 frame arrives with TTL 1, so
// a walk that decrements it twice floors it at zero.
func rigCases() []rigCase {
	firewallFrames := func(n int) (frames [][]byte, inPorts []uint32) {
		b := pkt.NewBuilder(128)
		for i := 0; i < n; i++ {
			dst := workload.WebServerIP
			if i%3 == 0 {
				dst = pkt.IPv4FromOctets(192, 0, 2, byte(2+i%5))
			}
			frames = append(frames, pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
				pkt.IPv4Opts{Src: pkt.IPv4(0x0a000000 + uint32(i%9)), Dst: dst},
				pkt.L4Opts{Src: uint16(1000 + i), Dst: []uint16{80, 22}[i/3%2]})))
			inPorts = append(inPorts, uint32(1+i%2))
		}
		return frames, inPorts
	}
	gw := workload.GatewayUseCase(workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5})
	l3 := workload.L3UseCase(400, 8, 7)
	lb := workload.LoadBalancerUseCase(50)
	acl := decomposedACL()
	cases := []rigCase{
		{"gateway", gw.Pipeline, false, func(n int) ([][]byte, []uint32) { return traceFrames(gw, n) }},
		{"l3", l3.Pipeline, false, func(n int) ([][]byte, []uint32) { return traceFrames(l3, n) }},
		{"firewall", workload.FirewallMultiStage(), false, firewallFrames},
		{"loadbalancer", lb.Pipeline, false, func(n int) ([][]byte, []uint32) { return traceFrames(lb, n) }},
		{"acl-decomposed", acl.Pipeline, true, func(n int) ([][]byte, []uint32) { return traceFrames(acl, n) }},
	}
	for i := range cases {
		frames := cases[i].frames
		cases[i].frames = func(n int) ([][]byte, []uint32) {
			fs, ports := frames(n)
			for j, f := range fs {
				p := pkt.Packet{Data: f}
				pkt.ParseTo(&p, pkt.LayerL3)
				if p.Headers.Has(pkt.ProtoIPv4) {
					fs[j] = pkt.Clone(f)
					fs[j][p.Headers.L3Off+8] = 1 // the TTL; checksums are not verified
					break
				}
			}
			return fs, ports
		}
	}
	return cases
}

// TestScopedInvalidationDifferential runs seeded random flow-mod sequences
// against the gateway, L3, firewall, load-balancer and decomposed ACL pipelines
// and, after every mod, compares the datapath with the interpreter.  A third
// of the frames is probed after every mod, a third every 7 and a third every
// 53 — more than the scope log's window, and more than its backing array —
// so revalidation runs against one record, against several, and against a
// log that no longer reaches back.
// Along the way the sequences reinstall the whole pipeline once, grow small
// tables out of the direct-code template, create tables, and twice widen the
// compiled cache key on purpose (a first exact match on a field, a longer
// prefix than any installed).  After every mod, too, pairs of frames that
// agree on the compiled key and are random outside it are sent back to back,
// in both orders: whichever installs the entry, the other must be served the
// interpreter's verdict and headers for itself (checkAliases).
func TestScopedInvalidationDifferential(t *testing.T) {
	for _, c := range rigCases() {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				// A cache that holds every frame, then one (256 entries, the
				// minimum) that thrashes under more frames than it holds.
				entries, nFrames := 4096, 96
				if seed == 2 {
					entries, nFrames = 64, 400
				}
				frames, inPorts := c.frames(nFrames)
				r := newScopeRig(t, c.pl, c.decompose, entries, frames, inPorts)
				r.meteredTwin()
				if c.decompose && r.dp.DecomposedTables() == 0 {
					t.Fatal("the decomposed case did not decompose")
				}
				rng := rand.New(rand.NewSource(seed))
				// The aliases and randomMod's added instruction kinds draw
				// from sources of their own, so the mod sequence is a
				// function of the seed alone.
				aliasRng := rand.New(rand.NewSource(seed ^ 0x616c696173))
				r.extra = rand.New(rand.NewSource(seed ^ 0x6578747261))
				templates := map[TemplateKind]bool{}
				r.check("cold", all)
				r.check("warm", all)
				const mods = 240
				widenings := 0
				for n := 1; n <= mods; n++ {
					// A decomposed datapath logs every mod as a barrier.
					barriersOnly := r.dp.DecomposedTables() > 0
					kept := r.dp.FlowCacheStats().Revalidated
					var what string
					widened := false
					switch n {
					case mods / 2:
						what = "InstallPipeline"
						for _, dp := range []*Datapath{r.dp, r.metered} {
							if err := dp.InstallPipeline(r.dp.Pipeline().Clone()); err != nil {
								t.Fatal(err)
							}
						}
					case mods / 4, 3 * mods / 4:
						if what, widened = r.widen(n > mods/2); widened {
							widenings++
						}
					default:
						what = r.randomMod(rng)
					}
					if k, ok := r.dp.TableTemplate(0); ok {
						templates[k] = true
					}
					label := fmt.Sprintf("after mod %d (%s)", n, what)
					r.check(label, func(i int) bool {
						switch {
						case i%3 == 0 || widened:
							return true
						case i%3 == 1:
							return n%7 == 0
						default:
							return n%53 == 0
						}
					})
					picks := make([]int, 8)
					for j := range picks {
						picks[j] = aliasRng.Intn(len(frames))
					}
					r.checkAliases(label, picks, aliasRng.Uint64)
					if now := r.dp.FlowCacheStats().Revalidated; (barriersOnly || widened) && now != kept {
						t.Fatalf("mod %d (%s), a barrier, let %d probes revalidate", n, what, now-kept)
					}
				}
				r.check("final", all)

				st := r.dp.FlowCacheStats()
				t.Logf("%+v", st)
				if !r.dp.FlowCacheEnabled() {
					t.Fatal("the mod sequence disarmed the cache; the run proved nothing")
				}
				if st.Hits == 0 || st.Stale == 0 || st.Expired == 0 || st.Flushes == 0 {
					t.Fatalf("expected hits, stale and expired probes, and flushes (InstallPipeline): %+v", st)
				}
				if !c.decompose && st.Revalidated == 0 {
					t.Fatalf("no probe was ever revalidated: %+v", st)
				}
				if widenings == 0 {
					t.Fatal("neither aimed mod widened the compiled key")
				}
				if c.name == "firewall" && len(templates) < 2 {
					t.Fatalf("table 0 never left its template: %v", templates)
				}
			})
		}
	}
}

// FuzzPipelineDifferential hands the generated flow-mod sequences to the
// fuzzer — which rig, which seed, how many mods (up to 48) and which cache
// size (Options.FlowCache 64, the 256-entry minimum, or 4096) — with
// randomMod's full instruction draw, and after every mod compares every
// frame's outcome on the cached worker, Trace, the metered twin and the
// baseline switch with the interpreter's (scopeRig.check).  The first two
// seed inputs are the counterexamples that found the baseline replaying a
// cached action list past an output-then-drop, and without its
// write-metadata; testdata's acl_punt_source_table inputs found decomposed
// datapaths punting with a derived stage's table ID.
func FuzzPipelineDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(49), uint8(48), false)
	f.Add(uint8(1), uint8(90), uint8(48), true)
	f.Add(uint8(2), uint8(3), uint8(48), false)
	f.Add(uint8(3), uint8(4), uint8(48), true)
	cases := rigCases()
	f.Fuzz(func(t *testing.T, rig, seed, mods uint8, small bool) {
		c := cases[int(rig)%len(cases)]
		entries := 4096
		if small {
			entries = 64
		}
		frames, inPorts := c.frames(32)
		r := newScopeRig(t, c.pl, c.decompose, entries, frames, inPorts)
		r.meteredTwin()
		r.ovsTwin()
		rng := rand.New(rand.NewSource(int64(seed)))
		r.extra = rand.New(rand.NewSource(int64(seed) ^ 0x6578747261))
		r.check("cold", all)
		for n := 1; n <= int(mods)%49; n++ {
			what := r.randomMod(rng)
			r.check(fmt.Sprintf("seed %d, after mod %d (%s)", seed, n, what), all)
		}
	})
}

// TestScopedInvalidationPins pins the point of the change on the gateway:
// after a flow-mod that overlaps no warmed flow, the next pass is all hits
// and Stale does not move; after one that overlaps some, exactly those go
// stale; and a mod that matches a field rewritten upstream of its table is
// compared on the fields it has left — here none — and stales everything.
func TestScopedInvalidationPins(t *testing.T) {
	uc := workload.GatewayUseCase(workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5})
	const nFlows = 90
	tr := uc.Trace(nFlows)
	var frames [][]byte
	var inPorts []uint32
	for i := 0; i < nFlows; i++ {
		f, port := tr.Frame(i)
		frames, inPorts = append(frames, f), append(inPorts, port)
	}
	r := newScopeRig(t, uc.Pipeline, false, 4096, frames, inPorts)
	r.check("cold", all)
	r.check("warm", all)

	// pass forwards every flow once and returns how the counters moved.
	pass := func(label string) (hits, stale, revalidated uint64) {
		t.Helper()
		before := r.dp.FlowCacheStats()
		r.check(label, all)
		after := r.dp.FlowCacheStats()
		return after.Hits - before.Hits, after.Stale - before.Stale, after.Revalidated - before.Revalidated
	}
	if hits, stale, reval := pass("steady"); hits != nFlows || stale != 0 || reval != 0 {
		t.Fatalf("steady state: %d hits, %d stale, %d revalidated of %d", hits, stale, reval, nFlows)
	}

	// A route no flow takes (the bench's churn shape): everything revalidates.
	route := openflow.NewEntry(24,
		openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(240, 1, 2, 0)), 24),
		openflow.Apply(openflow.DecTTL(), openflow.Output(2)))
	if err := r.dp.AddFlow(workload.GatewayTableRouting, route); err != nil {
		t.Fatal(err)
	}
	if hits, stale, reval := pass("unrelated route"); hits != nFlows || stale != 0 || reval != nFlows {
		t.Fatalf("after a route no flow takes: %d hits, %d stale, %d revalidated of %d", hits, stale, reval, nFlows)
	}
	if res := r.dp.Trace(&pkt.Packet{Data: frames[0], InPort: inPorts[0]}); res.Revalidated != 1 || res.Stale != nil ||
		!strings.Contains(res.String(), "; revalidated against 1 mods\n") {
		t.Fatalf("trace should report one mod survived and none overlapping:\n%s", res)
	}

	// Replace one user's NAT entry: exactly that user's flows go stale.
	perCE := r.dp.Pipeline().Table(workload.GatewayTableForCE(0))
	user := perCE.Entries()[0]
	private, _, _ := user.Match.Get(openflow.FieldIPSrc)
	public := user.Instructions.ApplyActions[0].Value
	theirs := uint64(0)
	for i := range frames {
		p := pkt.Packet{Data: frames[i]}
		pkt.ParseTo(&p, pkt.LayerL3)
		if uint64(p.Headers.IPSrc) == private {
			theirs++
		}
	}
	if theirs == 0 || theirs == nFlows {
		t.Fatalf("test premise: %d of %d flows belong to the user", theirs, nFlows)
	}
	replacement := openflow.NewEntry(user.Priority, user.Match.Clone(),
		openflow.ApplyThenGoto(workload.GatewayTableRouting,
			openflow.SetField(openflow.FieldIPSrc, public+1), openflow.PopVLAN()))
	if err := r.dp.AddFlow(perCE.ID, replacement); err != nil {
		t.Fatal(err)
	}
	if hits, stale, reval := pass("one user replaced"); stale != theirs || reval != nFlows-theirs || hits != nFlows-theirs {
		t.Fatalf("after replacing one user's entry: %d hits, %d stale, %d revalidated; want %d stale of %d",
			hits, stale, reval, theirs, nFlows)
	}
	// Flow 0 is that user's: the trace names the mod that stales it.
	res := r.dp.Trace(&pkt.Packet{Data: frames[0], InPort: inPorts[0]})
	if res.Revalidated != 0 || res.Stale == nil || *res.Stale != (TraceStaleMod{Generation: 2, Table: perCE.ID}) ||
		!strings.Contains(res.String(), fmt.Sprintf("; stale: overlaps mod gen 2 in table %d\n", perCE.ID)) {
		t.Fatalf("trace should name mod gen 2 in table %d as overlapping:\n%s", perCE.ID, res)
	}

	// A rule in the routing table on the (NATed) source address: ip_src is
	// dirty there, so nothing of the match is comparable with the wire and
	// every IPv4 verdict goes stale — the mod must not be compared against
	// the private address the probe sees.
	snat := openflow.NewEntry(500,
		openflow.NewMatch().Set(openflow.FieldIPSrc, public+1),
		openflow.Apply(openflow.Output(1)))
	if err := r.dp.AddFlow(workload.GatewayTableRouting, snat); err != nil {
		t.Fatal(err)
	}
	if hits, stale, reval := pass("match on a rewritten field"); stale != nFlows || reval != 0 || hits != 0 {
		t.Fatalf("after a mod on a field rewritten upstream: %d hits, %d stale, %d revalidated; want all %d stale",
			hits, stale, reval, nFlows)
	}
	if st := r.dp.FlowCacheStats(); st.Flushes != 0 {
		t.Fatalf("none of these mods is a barrier, yet %d flushes", st.Flushes)
	}

	// More unrelated mods than the log's window, with only flow 0 probed
	// along the way: it revalidates every time; the others' entries end up
	// older than the log reaches back and expire.
	r.check("rewarm", all)
	for n := 0; n < 2*modLogWindow+1; n++ {
		route.Match.SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(241, byte(n), 0, 0)), 24)
		if err := r.dp.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(24, route.Match.Clone(), route.Instructions)); err != nil {
			t.Fatal(err)
		}
		r.check("flow 0 between unrelated mods", func(i int) bool { return i == 0 })
	}
	if hits, stale, reval := pass("log overflow"); stale != nFlows-1 || reval != 0 || hits != 1 {
		t.Fatalf("after more mods than the log holds: %d hits, %d stale, %d revalidated; want all but flow 0 stale",
			hits, stale, reval)
	}
	if st := r.dp.FlowCacheStats(); st.Expired != nFlows-1 || st.Flushes != 0 {
		t.Fatalf("want those %d stale probes counted as expired and no flush: %+v", nFlows-1, st)
	}

	// One mod short of the window is still inside it.
	for n := 0; n < modLogWindow; n++ {
		route.Match.SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(242, byte(n), 0, 0)), 24)
		if err := r.dp.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(24, route.Match.Clone(), route.Instructions)); err != nil {
			t.Fatal(err)
		}
	}
	if hits, stale, reval := pass("window's edge"); stale != 0 || reval != nFlows || hits != nFlows {
		t.Fatalf("after exactly as many mods as the window holds: %d hits, %d stale, %d revalidated; want all revalidated",
			hits, stale, reval)
	}
}

// TestDirtyFieldAnalysis checks the per-table dirty sets on the gateway and
// that they grow when a flow-mod adds a new kind of rewrite upstream.
func TestDirtyFieldAnalysis(t *testing.T) {
	gc := workload.GatewayConfig{CEs: 2, UsersPerCE: 3, Prefixes: 50, Seed: 5}
	uc := workload.GatewayUseCase(gc)
	opts := DefaultOptions()
	opts.FlowCache = 256
	dp, err := Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	nat := openflow.FieldSet(0).Add(openflow.FieldIPSrc).Add(openflow.FieldVLANID).Add(openflow.FieldVLANPCP)
	if got := dp.dirty[workload.GatewayTableRouting]; got != nat {
		t.Fatalf("routing table dirty set %b, want ip_src + the VLAN tag (%b)", got, nat)
	}
	for _, id := range []openflow.TableID{workload.GatewayTableClassifier, workload.GatewayTableVLANDispatch, workload.GatewayTableForCE(0)} {
		if got := dp.dirty[id]; got != 0 {
			t.Fatalf("table %d is upstream of every rewrite, yet dirty %b", id, got)
		}
	}
	// A classifier entry that rewrites the L4 destination before the VLAN
	// dispatch dirties it (with its aliases) all the way down.
	e := openflow.NewEntry(200, openflow.NewMatch().Set(openflow.FieldInPort, 1).Set(openflow.FieldTCPDst, 8080),
		openflow.ApplyThenGoto(workload.GatewayTableVLANDispatch, openflow.SetField(openflow.FieldTCPDst, 80)))
	if err := dp.AddFlow(workload.GatewayTableClassifier, e); err != nil {
		t.Fatal(err)
	}
	for _, id := range []openflow.TableID{workload.GatewayTableVLANDispatch, workload.GatewayTableForCE(1), workload.GatewayTableRouting} {
		if got := dp.dirty[id]; got&l4DstFields != l4DstFields {
			t.Fatalf("table %d: dirty %b lacks the L4 destination fields", id, got)
		}
	}
	// What a mod's scope keeps: in the routing table the VLAN tag was popped
	// upstream, so neither the tag nor its presence is comparable with the
	// wire, while ip_dst is, along with the IPv4 prerequisite; in the
	// classifier everything is.
	dst := uint64(pkt.IPv4FromOctets(203, 0, 113, 7))
	m := openflow.NewMatch().Set(openflow.FieldVLANID, 100).Set(openflow.FieldIPDst, dst)
	ipv4, vlan := uint64(pkt.ProtoIPv4)<<keyProtoShift, uint64(pkt.ProtoVLAN)<<keyProtoShift
	if sc := dp.scopeOf(workload.GatewayTableRouting, m); sc.barrier ||
		sc.mask != (flowKey{1: ipv4, 3: 0xffffffff}) || sc.val != (flowKey{1: ipv4, 3: dst}) {
		t.Fatalf("routing-table scope of %v: %+v", m, sc)
	}
	if sc := dp.scopeOf(workload.GatewayTableClassifier, m); sc.barrier ||
		sc.mask != (flowKey{0: 0xfff << 48, 1: ipv4 | vlan, 3: 0xffffffff}) || sc.val != (flowKey{0: 100 << 48, 1: ipv4 | vlan, 3: dst}) {
		t.Fatalf("classifier scope of %v: %+v", m, sc)
	}
	if sc := dp.scopeOf(workload.GatewayTableClassifier, openflow.NewMatch().Set(openflow.FieldIPDSCP, 1)); !sc.barrier {
		t.Fatal("a match outside the flow key must be a barrier")
	}
	if size := 2 * modLogWindow * unsafe.Sizeof(modScope{}); size > 4096 {
		t.Fatalf("the scope log's backing array is %d bytes, over the 4 KB it is documented to stay under", size)
	}
	// Without caches there is nothing to invalidate: no analysis, no log.
	plain, err := Compile(workload.GatewayUseCase(gc).Pipeline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddFlow(workload.GatewayTableClassifier, e.Clone()); err != nil {
		t.Fatal(err)
	}
	if plain.dirty != nil || plain.mods != nil {
		t.Fatal("a datapath compiled without caches built the scope log")
	}
}
